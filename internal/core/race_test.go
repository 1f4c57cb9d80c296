//go:build race

package core

// raceEnabled reports a -race build. Its runtime changes what the
// allocation gates measure: it turns the tiny allocator off, so every short
// string takes a whole 16-byte slot, and sync.Pool drops a random quarter
// of what it is given, so a path through fmt allocates a varying count.
const raceEnabled = true
