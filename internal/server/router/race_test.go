//go:build race

package router

// raceEnabled: the race detector's instrumentation allocates, so the
// allocation pins only hold without it.
const raceEnabled = true
