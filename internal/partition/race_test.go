//go:build race

package partition

// raceEnabled reports a -race build, which runs TestPartitionOracle's
// single-goroutine exhaustive search about 15 times slower for nothing to
// check.
const raceEnabled = true
