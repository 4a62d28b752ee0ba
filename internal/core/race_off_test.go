//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build;
// its sync.Pool drops a random share of Puts, so a tree DP solve under it
// may miss the pool and allocate a fresh workspace.
const raceEnabled = false
