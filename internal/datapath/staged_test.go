package datapath

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"rcbr/internal/cell"
	"rcbr/internal/shaper"
	"rcbr/internal/switchfab"
)

// TestVCEntryIsOneCacheLine pins the entry's size: the allocator's 64-byte
// class hands out 64-byte-aligned objects, so an entry that fits the class
// never straddles two lines.
func TestVCEntryIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(vcEntry{}); size > 64 {
		t.Fatalf("vcEntry is %d bytes, over one 64-byte cache line", size)
	}
}

// The reference model for TestStagedSweepMatchesPerCellModel: forwardPort as
// it was before the sweep was staged — one loop, cell by cell, on a
// shaper.TokenBucket per VC — with slices for rings and plain integers for
// counters.
type modelVC struct {
	egress                     int
	rate                       float64 // the control plane's mailbox
	tb                         shaper.TokenBucket
	lastNanos                  int64
	forwarded, policed, overfl int64
}

type modelPort struct {
	in, out                                 []Cell
	arrived, bad, unr, policed, overfl, fwd int64
	enqueued, transmitted                   int64
}

type perCellModel struct {
	vcs         map[switchfab.VCID]*modelVC
	ports       []*modelPort
	burst, ring int
}

func (m *perCellModel) addVC(id switchfab.VCID, egress int, rate float64) {
	m.vcs[id] = &modelVC{egress: egress, rate: rate, lastNanos: unsetNanos,
		tb: *shaper.New(rate, DefaultDepthCells*CellPayloadBits)}
}

func (m *perCellModel) forward(now int64) (total int) {
	for _, p := range m.ports {
		n := min(len(p.in), m.burst)
		for _, c := range p.in[:n] {
			h, err := cell.ParseHeader(c[:cell.HeaderSize])
			if err != nil {
				p.bad++
				continue
			}
			e := m.vcs[switchfab.MakeVCID(h.VPI, h.VCI)]
			if e == nil {
				p.unr++
				continue
			}
			if e.rate != e.tb.Rate() {
				e.tb.SetRate(e.rate)
			}
			if e.lastNanos == unsetNanos {
				e.lastNanos = now
			} else if dt := now - e.lastNanos; dt > 0 {
				e.tb.Tick(float64(dt) * 1e-9)
				e.lastNanos = now
			}
			if !e.tb.Take(CellPayloadBits) {
				e.policed++
				p.policed++
				continue
			}
			out := m.ports[e.egress]
			if len(out.out) == m.ring {
				e.overfl++
				p.overfl++
				continue
			}
			out.out = append(out.out, c)
			out.enqueued++
			e.forwarded++
			p.fwd++
		}
		p.in = p.in[n:]
		total += n
	}
	return total
}

// TestStagedSweepMatchesPerCellModel drives the forwarder and the per-cell
// model above with the same seeded traffic — bursts of 1 to 2×burst cells,
// bad headers, unroutable ids, rate-0 VCs, the same VC many times in one
// burst, egress rings small enough to overflow, rate retargets and a VC
// taken down and set up again between sweeps — and requires them to agree
// exactly after every sweep: every per-VC and per-port counter, every
// bucket's token level bit for bit, and the order of cells leaving each
// egress port. Stage 2 works the burst in arrival order on the same
// arithmetic, so staging the sweep changed no observable.
func TestStagedSweepMatchesPerCellModel(t *testing.T) {
	var events PortStats // summed over every run: what the traffic exercised
	for _, cfg := range []struct{ burst, ring int }{
		{1, 2}, {7, 2}, {7, 16}, {DefaultBurst, 128},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			stagedSweepRun(t, cfg.burst, cfg.ring, seed, &events)
		}
	}
	if events.BadHeader == 0 || events.Unroutable == 0 || events.Policed == 0 || events.Overflow == 0 || events.Forwarded == 0 {
		t.Errorf("the traffic missed an outcome: %+v", events)
	}
}

// stagedSweepRun is one seeded run of the comparison; it adds what its two
// ingress ports decided to events.
func stagedSweepRun(t *testing.T, burst, ring int, seed int64, events *PortStats) {
	t.Helper()
	const (
		nPorts  = 4 // 0 and 1 carry ingress traffic, 2 and 3 egress
		nVCs    = 8 // 0 and 1 are rate-0, 7 is the one that flaps
		flapper = nVCs - 1
		sweeps  = 400
	)
	rng := rand.New(rand.NewSource(seed))
	f := New(withBurst(burst), WithRingCells(ring))
	m := &perCellModel{vcs: map[switchfab.VCID]*modelVC{}, burst: burst, ring: ring}
	var pp []*Port
	for i := 0; i < nPorts; i++ {
		p, err := f.AddPort(i)
		if err != nil {
			t.Fatal(err)
		}
		pp = append(pp, p)
		m.ports = append(m.ports, &modelPort{})
	}
	// A VC sees about burst/nVCs cells per ~100 µs sweep; rates from a
	// fifth to five times that keep some VCs conforming and others policed.
	rate := func() float64 {
		return []float64{0.2, 0.5, 1, 2, 5}[rng.Intn(5)] * float64(burst) * 1250 * CellPayloadBits
	}
	ids := make([]switchfab.VCID, nVCs)
	addVC := func(i int) {
		r := rate()
		if i < 2 {
			r = 0
		}
		egress := 2 + i%2
		if err := f.AddVC(ids[i], egress, r); err != nil {
			t.Fatal(err)
		}
		m.addVC(ids[i], egress, r)
	}
	for i := range ids {
		ids[i] = switchfab.MakeVCID(uint8(i), uint16(0x0100+i))
		addVC(i)
	}
	stranger := switchfab.MakeVCID(9, 9)

	check := func(sweep int) {
		t.Helper()
		for i, id := range ids {
			e, me := f.vcs.Get(uint32(id)), m.vcs[id]
			if (e == nil) != (me == nil) {
				t.Fatalf("sweep %d vc %d: routed in the forwarder %v, in the model %v", sweep, i, e != nil, me != nil)
			}
			if e == nil {
				continue
			}
			got, want := f.stats(e), VCStats{Rate: me.rate, Forwarded: me.forwarded, Policed: me.policed, Overflow: me.overfl}
			want.Seen = want.Forwarded + want.Policed + want.Overflow
			if got != want {
				t.Fatalf("sweep %d vc %d: stats %+v, model %+v", sweep, i, got, want)
			}
			if math.Float64bits(e.tokens) != math.Float64bits(me.tb.Tokens()) || e.lastNanos != me.lastNanos {
				t.Fatalf("sweep %d vc %d: bucket (%v bits at %d), model (%v bits at %d)",
					sweep, i, e.tokens, e.lastNanos, me.tb.Tokens(), me.lastNanos)
			}
		}
		for k, e := range f.lookups {
			if e != nil {
				t.Fatalf("sweep %d: scratch slot %d still holds an entry between sweeps", sweep, k)
			}
		}
		for i, p := range pp {
			mp := m.ports[i]
			want := PortStats{
				Arrived: mp.arrived, BadHeader: mp.bad, Unroutable: mp.unr, Policed: mp.policed,
				Overflow: mp.overfl, Forwarded: mp.fwd, Enqueued: mp.enqueued, Transmitted: mp.transmitted,
				InQueued: len(mp.in), OutQueued: len(mp.out),
			}
			if got := p.Stats(); got != want {
				t.Fatalf("sweep %d port %d: stats %+v, model %+v", sweep, i, got, want)
			}

		}
	}

	var now int64
	var stamp uint64
	for sweep := 0; sweep < sweeps; sweep++ {
		in := rng.Intn(2)
		for k := 1 + rng.Intn(2*burst); k > 0; k-- {
			id := ids[rng.Intn(nVCs)]
			roll := rng.Intn(20)
			if roll == 0 {
				id = stranger
			}
			stamp++
			c := mkCell(t, id, stamp)
			if roll == 1 {
				c[4] ^= 0x80 // the HEC no longer matches
			}
			if f.Inject(pp[in], &c) {
				m.ports[in].in = append(m.ports[in].in, c)
				m.ports[in].arrived++
			}
		}
		switch rng.Intn(8) {
		case 0: // retarget a shaped VC; the rate-0 pair stays at 0
			i := 2 + rng.Intn(nVCs-2)
			if me := m.vcs[ids[i]]; me != nil {
				r := rate()
				if err := f.SetVCRate(ids[i], r); err != nil {
					t.Fatal(err)
				}
				me.rate = r
			}
		case 1: // flap: down if up, up (a fresh, full bucket) if down
			if m.vcs[ids[flapper]] != nil {
				if _, err := f.RemoveVC(ids[flapper]); err != nil {
					t.Fatal(err)
				}
				delete(m.vcs, ids[flapper])
			} else {
				addVC(flapper)
			}
		}
		if rng.Intn(10) > 0 { // one sweep in ten repeats the previous instant
			now += 1 + rng.Int63n(200_000)
		}
		if got, want := f.Forward(now), m.forward(now); got != want {
			t.Fatalf("sweep %d: Forward processed %d cells, the model %d", sweep, got, want)
		}
		for i := 2; i < nPorts; i++ {
			if rng.Intn(2) == 0 {
				continue
			}
			mp := m.ports[i]
			max := rng.Intn(2*burst + 1)
			k := 0
			f.TransmitTo(pp[i], max, func(c *Cell) {
				if k >= len(mp.out) || *c != mp.out[k] {
					t.Fatalf("sweep %d egress %d: cell %d left out of the model's order", sweep, i, k)
				}
				k++
			})
			if want := min(max, len(mp.out)); k != want {
				t.Fatalf("sweep %d egress %d: transmitted %d cells, the model %d", sweep, i, k, want)
			}
			mp.out = mp.out[k:]
			mp.transmitted += int64(k)
		}
		check(sweep)
	}
	// The float bucket's exact figure bench/ predicts from: a VC granted
	// nothing spends its initial depth and not one cell more.
	for i := 0; i < 2; i++ {
		vs, _ := f.VCStats(ids[i])
		if want := max(0, vs.Seen-DefaultDepthCells); vs.Policed != want {
			t.Errorf("rate-0 vc %d: %d of %d cells policed, want all but the first %d", i, vs.Policed, vs.Seen, DefaultDepthCells)
		}
	}
	for i := 0; i < 2; i++ {
		s := pp[i].Stats()
		events.BadHeader += s.BadHeader
		events.Unroutable += s.Unroutable
		events.Policed += s.Policed
		events.Overflow += s.Overflow
		events.Forwarded += s.Forwarded
	}
}
