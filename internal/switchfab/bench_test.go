package switchfab

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rcbr/internal/cell"
)

// benchPorts spreads benchmark VCs over enough output ports that port-mutex
// contention does not mask the VC-lookup cost under measurement.
const benchPorts = 64

// benchID maps a dense VC index onto the (VPI, VCI) space: indexes past
// 65535 spill onto higher VPIs, which is how the fabric addresses more than
// 64k circuits.
func benchID(i int) VCID {
	return MakeVCID(uint8(i>>16), uint16(i))
}

// newBenchSwitch builds a fabric with vcs established circuits striped over
// benchPorts ports.
func newBenchSwitch(tb testing.TB, vcs int) *Switch {
	tb.Helper()
	s := New()
	for p := 0; p < benchPorts; p++ {
		if err := s.AddPort(p, 1e12); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < vcs; i++ {
		if err := s.SetupID(benchID(i), i%benchPorts, 100e3); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// BenchmarkSwitchHandleRM measures parallel renegotiation throughput as the
// established-VC population grows. Requests are idempotent resyncs so the
// working rates never drift; each worker walks its own VC stride.
func BenchmarkSwitchHandleRM(b *testing.B) {
	for _, vcs := range []int{1, 16384, 65536, 100000} {
		b.Run(fmt.Sprintf("vcs=%d", vcs), func(b *testing.B) {
			s := newBenchSwitch(b, vcs)
			m := cell.RM{Resync: true, ER: 100e3}
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1)) % vcs
					id := benchID(i)
					h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
					if _, err := s.HandleRM(h, m); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// TestParallelFabricChurn is the race-detector shim behind the fabric
// benchmarks (make race): setups, teardowns, RM cells and table
// listings all running against each other.
func TestParallelFabricChurn(t *testing.T) {
	const (
		workers = 8
		vcs     = 512
		rounds  = 200
	)
	s := newBenchSwitch(t, vcs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 4 {
			case 0, 1: // renegotiations, two target rates pulling on the same VCs
				m := cell.RM{Resync: true, ER: 200e3 - float64(w%4)*50e3}
				for i := 0; i < rounds*8; i++ {
					id := benchID((i*7 + w) % vcs)
					h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
					if _, err := s.HandleRM(h, m); err != nil {
						t.Error(err)
						return
					}
				}
			case 2: // churn a private VC range up and down
				base := 1 << 20 * (w/4 + 1) // VPIs far above the shared set
				for i := 0; i < rounds; i++ {
					id := benchID(base + i%32)
					if err := s.SetupID(id, i%benchPorts, 64e3); err != nil {
						t.Error(err)
						return
					}
					if err := s.TeardownID(id); err != nil {
						t.Error(err)
						return
					}
				}
			case 3: // observers
				for i := 0; i < rounds/4; i++ {
					_ = s.VCs()
					_ = s.VCCount()
					_ = s.Stats()
					if _, _, err := s.PortLoad(i % benchPorts); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.VCCount(); got != vcs {
		t.Errorf("VC count %d after churn, want %d", got, vcs)
	}
}
