//go:build !race

package datapath

// Full-size counts for the concurrent conservation property when the race
// detector is off: each quick.Check seed storms 8 producers × 8000 cells
// through the forwarding goroutine.
const (
	conservationQuickRuns    = 3
	conservationCellsPerPort = 8000
)
