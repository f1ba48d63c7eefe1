package core

import (
	"fmt"

	"rcbr/internal/queue"
)

// Source models the RCBR abstraction presented to an application: a
// fixed-size data buffer at the network entry, drained at the currently
// negotiated constant rate. Data overflowing the buffer is lost. Source is
// the state machine behind the online heuristic and the example
// applications; it advances in slots of SlotSeconds.
type Source struct {
	buffer    float64 // B, bits
	slotSec   float64
	rate      float64 // current drain rate, bits/s
	occupancy float64
	arrived   float64
	lost      float64
	renegs    int
	slots     int
}

// NewSource returns a source with buffer B bits, slot duration slotSec
// seconds, and an initial negotiated rate (bits/second). It panics on
// non-positive B or slotSec, or a negative rate.
func NewSource(B, slotSec, initialRate float64) *Source {
	if B <= 0 || slotSec <= 0 || initialRate < 0 {
		panic("core: NewSource invalid arguments")
	}
	return &Source{buffer: B, slotSec: slotSec, rate: initialRate}
}

// Step advances one slot of eq. (3) (queue.Step): arrivalBits enter the
// buffer and up to rate*slotSec bits drain. It returns the bits lost to
// overflow this slot.
func (s *Source) Step(arrivalBits float64) (lostBits float64) {
	if arrivalBits < 0 {
		panic(fmt.Sprintf("core: negative arrival %g", arrivalBits))
	}
	s.slots++
	s.arrived += arrivalBits
	s.occupancy, lostBits = queue.Step(s.occupancy, arrivalBits, s.rate*s.slotSec, s.buffer)
	s.lost += lostBits
	return lostBits
}

// SetRate renegotiates the drain rate, effective from the next Step. It
// counts as a renegotiation only when the rate actually changes. It panics
// on a negative rate.
func (s *Source) SetRate(r float64) {
	if r < 0 {
		panic(fmt.Sprintf("core: negative rate %g", r))
	}
	if r != s.rate {
		s.renegs++
		s.rate = r
	}
}

// Rate returns the current negotiated drain rate (bits/second).
func (s *Source) Rate() float64 { return s.rate }

// Occupancy returns the current buffer occupancy in bits.
func (s *Source) Occupancy() float64 { return s.occupancy }

// Buffer returns the buffer size B in bits.
func (s *Source) Buffer() float64 { return s.buffer }

// SlotSeconds returns the slot duration.
func (s *Source) SlotSeconds() float64 { return s.slotSec }

// ArrivedBits returns the total bits offered so far.
func (s *Source) ArrivedBits() float64 { return s.arrived }

// LostBits returns the total bits lost to buffer overflow so far.
func (s *Source) LostBits() float64 { return s.lost }

// Renegotiations returns the number of successful rate changes so far.
func (s *Source) Renegotiations() int { return s.renegs }

// Slots returns the number of slots stepped so far.
func (s *Source) Slots() int { return s.slots }

// LossFraction returns LostBits/ArrivedBits, or 0 before any arrivals.
func (s *Source) LossFraction() float64 {
	if s.arrived == 0 {
		return 0
	}
	return s.lost / s.arrived
}
