//go:build race

package lotsize

// raceEnabled reports whether the race detector instruments this build;
// its sync.Pool drops a random share of Puts, so a solve under it may miss
// the pool and allocate a fresh workspace.
const raceEnabled = true
