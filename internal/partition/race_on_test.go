//go:build race

package partition

// raceEnabled reports that this binary was built with the race detector,
// under which sync.Pool intentionally randomizes caching — pool-backed
// allocation gates would flake, so they skip themselves.
const raceEnabled = true
