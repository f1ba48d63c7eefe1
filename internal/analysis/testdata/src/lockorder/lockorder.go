// Package lockorder seeds violations of the fabric lock rules: never two
// port locks at once (directly, in a branch, or through callees),
// self-deadlocks, an acquisition-order cycle and never-ring.
package lockorder

import "sync"

// table stands for any other lock class a port lock may nest over — the VC
// table's writer mutex in the real fabric.
type table struct {
	mu sync.RWMutex
}

type port struct {
	mu sync.Mutex
}

// correct follows the fabric's shape: one port lock, a leaf lock under it.
func correct(t *table, p *port) {
	p.mu.Lock()
	t.mu.Lock()
	t.mu.Unlock()
	p.mu.Unlock()
}

// readCorrect does the same with a read lock under a deferred unlock.
func readCorrect(t *table, p *port) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t.mu.RLock()
	t.mu.RUnlock()
}

// twoPorts holds two port locks at once.
func twoPorts(a, b *port) {
	a.mu.Lock()
	b.mu.Lock() // want "second port lock"
	b.mu.Unlock()
	a.mu.Unlock()
}

// twoPortsDeferred does so under a deferred unlock.
func twoPortsDeferred(a, b *port) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "second port lock"
	b.mu.Unlock()
}

// selfDeadlock re-locks the mutex it already holds.
func selfDeadlock() {
	var mu sync.Mutex
	mu.Lock()
	mu.Lock() // want "self-deadlock"
	mu.Unlock()
}

// branchScoped takes the second port lock only inside a branch; once the
// first is released, locking the other port is fine.
func branchScoped(a, b *port, cond bool) {
	a.mu.Lock()
	if cond {
		b.mu.Lock() // want "second port lock"
		b.mu.Unlock()
	}
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// lockPort acquires a port lock on behalf of its caller.
func lockPort(p *port) {
	p.mu.Lock()
	p.mu.Unlock()
}

// lockPortDeep reaches the port lock two calls down.
func lockPortDeep(p *port) {
	lockPort(p)
}

// viaCallee takes the second port lock through a direct callee.
func viaCallee(a, b *port) {
	a.mu.Lock()
	lockPort(b) // want "via call to lockPort"
	a.mu.Unlock()
}

// viaDeepCallee takes it through a transitive callee.
func viaDeepCallee(a, b *port) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockPortDeep(b) // want "via call to lockPortDeep"
}

// alpha and beta are classes whose acquisition orders invert
// between cycleAB and cycleBA: a classic two-mutex deadlock.
type alpha struct {
	mu sync.Mutex
}

type beta struct {
	mu sync.Mutex
}

func cycleAB(a *alpha, b *beta) {
	a.mu.Lock()
	b.mu.Lock() // want "lock-order cycle"
	b.mu.Unlock()
	a.mu.Unlock()
}

func cycleBA(a *alpha, b *beta) {
	b.mu.Lock()
	a.mu.Lock() // want "lock-order cycle"
	a.mu.Unlock()
	b.mu.Unlock()
}

// suppressed shows an ignore directive scoping: the directive suppresses
// the second port lock on the next line only, not the rest of the file —
// the violations above and below still report.
func suppressed(a, b *port) {
	a.mu.Lock()
	//rcbrlint:ignore lockorder migration moves a VC between two quiesced ports
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// notSuppressed sits after the directive in source order and still reports:
// the ignore above is line-scoped.
func notSuppressed(a, b *port) {
	a.mu.Lock()
	b.mu.Lock() // want "second port lock"
	b.mu.Unlock()
	a.mu.Unlock()
}

// cellRing models a ring buffer that wrongly grew a mutex: the never-ring
// rule reports the field at its declaration, before any acquisition.
type cellRing struct {
	mu sync.Mutex // want "rings are SPSC"
}

// lockRing acquires the ring's lock directly.
func lockRing(r *cellRing) {
	r.mu.Lock() // want "never locked"
	r.mu.Unlock()
}

// lockRingUnderPort would be doubly wrong in the fabric: a ring lock taken
// while a port lock is held. The ring rule reports it regardless of what is
// held.
func lockRingUnderPort(p *port, r *cellRing) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r.mu.Lock() // want "never locked"
	r.mu.Unlock()
}

// resultString contains "ring" only inside another word: not a ring type,
// so its mutex is an ordinary class and reports nothing.
type resultString struct {
	mu sync.Mutex
}

func lockString(x *resultString) {
	x.mu.Lock()
	x.mu.Unlock()
}
