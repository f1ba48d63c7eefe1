//go:build race

package datapath

// The race detector multiplies memory and time per operation by an order
// of magnitude; smaller counts keep `make race` quick while still
// interleaving the forwarding goroutine far past any realistic schedule.
const (
	conservationQuickRuns    = 2
	conservationCellsPerPort = 2500
)
