//go:build race

package netproto

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops a share of what it is given, so the request buffers' pool
// allocates at random and a whole-process allocation count is no pin.
const raceEnabled = true
