//go:build !race

package partition

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
