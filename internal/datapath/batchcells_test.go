package datapath_test

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"rcbr/internal/datapath"
	"rcbr/internal/mesh"
	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// TestBatchCellsExactAcrossSharedRegistry holds datapath.batch_cells to the
// sweeps it counts when three forwarders publish into one registry, as a
// mesh relay's hops do, while another goroutine snapshots the registry. The
// first hop is offered random bursts, so its sweeps span buckets 1 to 64;
// the later hops see the one cell a slot their links bring. What a hop's
// Forward returned in a slot is what its ingress rings released in it, read
// off the port ledgers between slots. At the end the histogram's count is
// the number of busy sweeps, its sum the cells they swept, and each bucket
// what the linear scan the registry's Histogram.Observe makes would count;
// every snapshot on the way has at least one cell per sweep.
func TestBatchCellsExactAcrossSharedRegistry(t *testing.T) {
	const (
		hops      = 3
		vcs       = 16
		slots     = 20_000
		slotNanos = 2726 // one cell time at 155.52 Mb/s
	)
	reg := metrics.NewRegistry()
	grant := datapath.CellPayloadBits / (vcs * slotNanos * 1e-9)
	ids := make([]switchfab.VCID, vcs)
	for i := range ids {
		ids[i] = switchfab.MakeVCID(1, uint16(100+i))
	}
	cellHops := make([]mesh.CellHop, hops)
	for k := range cellHops {
		fw := datapath.New(datapath.WithMetrics(reg))
		for port := 0; port < 2; port++ {
			if _, err := fw.AddPort(port); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			if err := fw.AddVC(id, 1, grant); err != nil {
				t.Fatal(err)
			}
		}
		cellHops[k] = mesh.CellHop{FW: fw, In: 0, Out: 1, DelaySlots: 2}
	}
	cp, err := mesh.NewCellPath(cellHops, slotNanos)
	if err != nil {
		t.Fatal(err)
	}
	released := func(k int) int64 {
		var n int64
		for _, p := range []int{0, 1} {
			s := cellHops[k].FW.Port(p).Stats()
			n += s.Arrived - int64(s.InQueued)
		}
		return n
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if h := reg.Snapshot().Histograms[datapath.MetricBatchCells]; h.Sum < float64(h.Count) {
				t.Errorf("mid-run snapshot: %d sweeps of %g cells", h.Count, h.Sum)
				return
			}
		}
	}()

	bounds := metrics.ExpBuckets(1, 2, 12)
	want := make([]int64, len(bounds)+1)
	var sweeps, cells int64
	var before [hops]int64
	rng := rand.New(rand.NewPCG(1, 2))
	vc := 0
	for slot := int64(0); slot < slots; slot++ {
		burst := rng.IntN(3)
		if rng.IntN(50) == 0 {
			burst = 1 + rng.IntN(70)
		}
		for ; burst > 0; burst-- {
			cp.InjectStamped(ids[vc], slot)
			vc = (vc + 1) % vcs
		}
		for k := range before {
			before[k] = released(k)
		}
		cp.Step(slot)
		for k := range before {
			n := released(k) - before[k]
			if n == 0 {
				continue
			}
			sweeps++
			cells += n
			i := 0
			for i < len(bounds) && float64(n) > bounds[i] {
				i++
			}
			want[i]++
		}
	}
	close(stop)
	wg.Wait()

	h := reg.Snapshot().Histograms[datapath.MetricBatchCells]
	if h.Count != sweeps || h.Sum != float64(cells) || !slices.Equal(h.Counts, want) {
		t.Fatalf("batch_cells: %d sweeps of %g cells in buckets %v; want %d of %d in %v", h.Count, h.Sum, h.Counts, sweeps, cells, want)
	}
	if want[6] == 0 {
		t.Fatalf("no sweep of 33 to 64 cells (buckets %v): the bursts did not reach a full burst", want)
	}
}
