// Package lockscope exercises the lockscope analyzer: no mutex held
// across network I/O, channel operations, sleeps, selects without a
// default, or WaitGroup.Wait.
package lockscope

import (
	"net"
	"sync"
	"time"
)

type fabric struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	conn *net.Conn
	ch   chan int
	wg   sync.WaitGroup
}

func (f *fabric) netUnderLock() {
	f.mu.Lock()
	f.conn.Write(nil) // want "f.mu is held across net.Conn.Write"
	f.mu.Unlock()
}

func (f *fabric) sleepUnderDeferredUnlock() {
	f.mu.Lock()
	defer f.mu.Unlock()
	time.Sleep(5) // want "f.mu is held across time.Sleep"
}

func (f *fabric) channelOpsUnderRLock() {
	f.rw.RLock()
	f.ch <- 1 // want "f.rw is held across a channel send"
	<-f.ch    // want "f.rw is held across a channel receive"
	f.rw.RUnlock()
}

func (f *fabric) selectUnderLock() {
	f.mu.Lock()
	select { // want "a select with no default case"
	case v := <-f.ch:
		_ = v
	}
	f.mu.Unlock()
}

func (f *fabric) waitUnderLock() {
	f.mu.Lock()
	f.wg.Wait() // want "sync.WaitGroup.Wait"
	f.mu.Unlock()
}

func (f *fabric) rangeUnderLock() {
	f.mu.Lock()
	for v := range f.ch { // want "a range over a channel"
		_ = v
	}
	f.mu.Unlock()
}

func (f *fabric) releaseBeforeBlocking() {
	f.mu.Lock()
	f.mu.Unlock()
	f.conn.Write(nil)
	<-f.ch
}

func (f *fabric) nonBlockingSelect() {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case f.ch <- 1:
	default:
	}
}

func (f *fabric) branchReleases() {
	f.mu.Lock()
	if len(f.ch) == 0 {
		f.mu.Unlock()
		<-f.ch
		return
	}
	f.mu.Unlock()
}

func (f *fabric) goroutineUnderLock() {
	f.mu.Lock()
	defer f.mu.Unlock()
	go func() {
		<-f.ch
	}()
}

// workerPool is the lock-free fan-out idiom the trellis optimizer and the
// experiments sweep runner use: a bounded set of persistent workers fed by
// a channel, joined with WaitGroup.Wait — no mutex anywhere near the
// channel operations, so the analyzer must stay silent.
func (f *fabric) workerPool(n int) {
	tasks := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				_ = t
			}
		}()
	}
	for t := 0; t < n; t++ {
		tasks <- t
	}
	close(tasks)
	wg.Wait()
}

// perSlotBarrier mirrors the optimizer's dispatch: results are collected
// under the lock only after the Wait barrier has released every worker.
func (f *fabric) perSlotBarrier(n int) {
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			f.ch <- 1
		}()
	}
	for w := 0; w < n; w++ {
		<-f.ch
	}
	wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
}

// dispatchUnderLock is the corresponding anti-pattern: feeding the pool's
// task channel, or joining it, while a mutex is held.
func (f *fabric) dispatchUnderLock() {
	f.mu.Lock()
	f.ch <- 1   // want "f.mu is held across a channel send"
	f.wg.Wait() // want "sync.WaitGroup.Wait"
	f.mu.Unlock()
}

// shard models a lock-sharded table: VC state lives in per-shard maps
// behind per-shard RWMutexes, with per-port accounting behind its own
// mutex nested inside (lock order: shard before port, never two shards at
// once).
type shard struct {
	mu  sync.RWMutex
	vcs map[uint32]float64
}

type shardedFabric struct {
	shards []shard
	portMu sync.Mutex
	load   float64
	conn   *net.Conn
	ch     chan int
}

// shardThenPort is the fabric's hot path: shard read lock, then the port
// mutex nested inside for the accounting update. Nested mutexes are not
// blocking operations; the analyzer must stay silent.
func (sf *shardedFabric) shardThenPort(id uint32, delta float64) {
	sh := &sf.shards[id&uint32(len(sf.shards)-1)]
	sh.mu.RLock()
	if _, ok := sh.vcs[id]; ok {
		sf.portMu.Lock()
		sf.load += delta
		sf.portMu.Unlock()
	}
	sh.mu.RUnlock()
}

// batchPerShardGroups is HandleRMBatch's shape: one exclusive-free pass per
// shard group, each group's lock released before the next is taken, and the
// reply channel fed only after the last unlock.
func (sf *shardedFabric) batchPerShardGroups(ids []uint32) {
	for _, id := range ids {
		sh := &sf.shards[id&uint32(len(sf.shards)-1)]
		sh.mu.RLock()
		_ = sh.vcs[id]
		sh.mu.RUnlock()
	}
	sf.ch <- 1
}

// shardLockAcrossReply is the anti-pattern the sharded refactor must never
// reintroduce: writing the signaling reply — network I/O — while the
// shard's lock pins every other VC that hashes to it.
func (sf *shardedFabric) shardLockAcrossReply(id uint32) {
	sh := &sf.shards[id&uint32(len(sf.shards)-1)]
	sh.mu.RLock()
	sf.conn.Write(nil) // want "sh.mu is held across net.Conn.Write"
	sh.mu.RUnlock()
}

// portLockAcrossHandoff: same defect one level down — the per-port mutex
// held across a channel handoff to the reply worker.
func (sf *shardedFabric) portLockAcrossHandoff(delta float64) {
	sf.portMu.Lock()
	sf.load += delta
	sf.ch <- 1 // want "sf.portMu is held across a channel send"
	sf.portMu.Unlock()
}

// meshPath mirrors internal/mesh's Path: a size-1 channel semaphore
// serializes whole path transactions (which block on modeled propagation
// delay), while a plain mutex guards only the rate/down snapshot fields.
type meshPath struct {
	sem  chan struct{}
	rmu  sync.Mutex
	rate float64
	down bool
	ch   chan int
}

// semaphoreThenSleep is the mesh transaction shape the semaphore exists
// for: acquire via channel send (no mutex involved), block on the modeled
// link delay, then touch the snapshot fields under the mutex only briefly.
// The analyzer must stay silent — the blocking happens outside any lock.
func (p *meshPath) semaphoreThenSleep() {
	p.sem <- struct{}{}
	time.Sleep(5) // modeled propagation delay, no lock held
	p.rmu.Lock()
	p.rate = 1
	p.rmu.Unlock()
	<-p.sem
}

// snapshotUnderLockAcrossWait is the anti-pattern the semaphore design
// avoids: holding the snapshot mutex across the per-hop wait would pin
// Rate() readers for a full satellite round trip.
func (p *meshPath) snapshotUnderLockAcrossWait() {
	p.rmu.Lock()
	time.Sleep(5) // want "p.rmu is held across time.Sleep"
	p.rate = 1
	p.rmu.Unlock()
}

// semaphoreAcquireUnderLock: taking the transaction semaphore (a channel
// send) while the snapshot mutex is held inverts the design and deadlocks
// against a transaction updating the snapshot.
func (p *meshPath) semaphoreAcquireUnderLock() {
	p.rmu.Lock()
	p.sem <- struct{}{} // want "p.rmu is held across a channel send"
	p.rmu.Unlock()
	<-p.sem
}
