// Package eventkind exercises the eventkind analyzer: every EventKind
// constant has a kind-name table entry and is emitted somewhere, and every
// histogram created through the registry is observed.
package eventkind

import "metrics"

type EventKind uint8

const (
	EventSetup EventKind = iota + 1
	EventStale // want "never emitted"
	EventGhost // want "no entry in the kind-name table"
)

var eventKindNames = [...]string{
	EventSetup: "setup",
	EventStale: "stale",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "unknown"
}

type Event struct{ Kind EventKind }

func emitSetup() Event { return Event{Kind: EventSetup} }

func emitGhost() Event { return Event{Kind: EventGhost} }

type instruments struct {
	setupLatency *metrics.Histogram
	renegLatency *metrics.Histogram
	deadLatency  *metrics.Histogram
}

func newInstruments(reg *metrics.Registry) instruments {
	return instruments{
		setupLatency: reg.Histogram("event.setup_seconds", nil),
		renegLatency: reg.Histogram("event.reneg_seconds", nil), // handed to observe below
		deadLatency:  reg.Histogram("event.dead_seconds", nil),  // want "never observed"
	}
}

func (i instruments) record(v float64) {
	i.setupLatency.Observe(v)
	observe(i.renegLatency, v)
}

func observe(h *metrics.Histogram, v float64) { h.Observe(v) }
