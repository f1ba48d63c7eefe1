// Package sim provides the discrete-event core both call-level simulators
// run on: a clock and a time-ordered queue of typed events held by value.
// The admission experiments of Section VI (callsim) and the churn generator
// (churn) each pop their events from one.
package sim

import "fmt"

// Queue is a min-heap of events of type E on their due times, and the clock
// those times are read against. The zero value is ready to use.
//
// Events with equal due times pop in an order fixed by the sequence of At
// and Pop calls, not by insertion: there is no sequence number. A simulation
// whose due times are continuous random draws never produces a tie, and any
// run replays exactly from its seed.
type Queue[E any] struct {
	now float64
	h   []item[E]
}

type item[E any] struct {
	t float64
	e E
}

// Now returns the due time of the last popped event: the current time.
func (q *Queue[E]) Now() float64 { return q.now }

// Len returns the number of pending events.
func (q *Queue[E]) Len() int { return len(q.h) }

// Next returns the due time of the earliest pending event. The queue must
// not be empty.
func (q *Queue[E]) Next() float64 { return q.h[0].t }

// At schedules e at absolute time t. Scheduling before Now panics: it is
// always a logic error in a discrete-event model.
func (q *Queue[E]) At(t float64, e E) {
	if t < q.now {
		panic(fmt.Sprintf("sim: scheduling at %g before now %g", t, q.now))
	}
	q.h = append(q.h, item[E]{t, e})
	h := q.h
	for i := len(h) - 1; i > 0 && h[i].t < h[(i-1)/2].t; i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
}

// Pop removes the earliest pending event, advances the clock to its due
// time and returns it. The queue must not be empty.
func (q *Queue[E]) Pop() E {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = item[E]{} // drop the moved copy's references
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].t < h[c].t {
			c = r
		}
		if h[i].t <= h[c].t {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.h = h
	q.now = top.t
	return top.e
}
