// Benchmarks regenerating the paper's evaluation at reduced scale: one
// benchmark per figure, plus the design ablations called out in DESIGN.md
// (trellis pruning rules, buffer quantization, flush term, event-driven vs
// per-frame call simulation). Full-scale runs live in cmd/rcbrsim.
package rcbr_test

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"rcbr/internal/admission"
	"rcbr/internal/bookahead"
	"rcbr/internal/callsim"
	"rcbr/internal/cell"
	"rcbr/internal/core"
	"rcbr/internal/datapath"
	"rcbr/internal/experiments"
	"rcbr/internal/heuristic"
	"rcbr/internal/ld"
	"rcbr/internal/markov"
	"rcbr/internal/mesh"
	"rcbr/internal/metrics"
	"rcbr/internal/queue"
	"rcbr/internal/shaper"
	"rcbr/internal/smg"
	"rcbr/internal/stats"
	"rcbr/internal/switchfab"
	"rcbr/internal/trace"
	"rcbr/internal/trellis"
)

// benchFrames keeps the benchmark workload small: 50 s of video.
const benchFrames = 1200

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	return experiments.StarWars(1, benchFrames)
}

func benchSchedule(b *testing.B, tr *trace.Trace) *core.Schedule {
	b.Helper()
	sch, err := experiments.OptimalSchedule(tr, 300e3, 3e5,
		experiments.FeasibleLevels(tr, 300e3, 12))
	if err != nil {
		b.Fatal(err)
	}
	return sch
}

// --- Fig. 2: renegotiation frequency vs bandwidth efficiency ---

func BenchmarkFig2OPT(b *testing.B) {
	tr := benchTrace(b)
	levels := experiments.FeasibleLevels(tr, 300e3, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := trellis.Optimize(tr, trellis.Options{
			Levels:         levels,
			BufferBits:     300e3,
			BufferGridBits: 300e3 / 2048,
			Cost:           core.CostModel{Alpha: 1e6, Beta: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2AR1(b *testing.B) {
	tr := benchTrace(b)
	p := heuristic.DefaultParams(100e3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristic.Run(tr, 300e3, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 5: the (c, B) curve ---

func BenchmarkFig5CBCurve(b *testing.B) {
	tr := benchTrace(b)
	buffers := queue.LogSpace(100e3, 20e6, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queue.CBCurve(tr, buffers, 1e-4)
	}
}

// --- Fig. 6: per-stream capacity of the three scenarios ---

func fig6Config(b *testing.B) smg.Config {
	tr := benchTrace(b)
	return smg.Config{
		Trace:      tr,
		Schedule:   benchSchedule(b, tr),
		BufferBits: 300e3,
		LossTarget: 1e-4,
		MinReps:    3,
		MaxReps:    6,
		CIFrac:     0.3,
		Seed:       1,
	}
}

func BenchmarkFig6CBR(b *testing.B) {
	cfg := fig6Config(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smg.CBRRate(cfg.Trace, cfg.BufferBits, cfg.LossTarget)
	}
}

func BenchmarkFig6Shared(b *testing.B) {
	cfg := fig6Config(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := smg.SharedRate(cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6RCBR(b *testing.B) {
	cfg := fig6Config(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := smg.RCBRRate(cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figs. 7/8 and the Fig. 9 extension: MBAC call simulation ---

func benchMBAC(b *testing.B, scheme string) {
	tr := benchTrace(b)
	sch := benchSchedule(b, tr)
	levels := experiments.FeasibleLevels(tr, 300e3, 12)
	desc := sch.Descriptor(levels)
	dist := ld.Dist{P: desc.Probabilities(), X: desc.Levels()}
	capacity := 10 * sch.MeanRate()
	lam := callsim.OfferedLoad(1.0, capacity, sch.MeanRate(), sch.DurationSec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ctrl admission.Controller
		var err error
		switch scheme {
		case "perfect":
			ctrl, err = admission.NewPerfectKnowledge(dist, capacity, 1e-3)
		case "memoryless":
			ctrl, err = admission.NewMemoryless(levels, capacity, 1e-3)
		case "memory":
			ctrl, err = admission.NewMemory(levels, capacity, 1e-3)
		}
		if err != nil {
			b.Fatal(err)
		}
		_, err = callsim.Run(callsim.Config{
			Schedule:      sch,
			Capacity:      capacity,
			ArrivalRate:   lam,
			Controller:    ctrl,
			TargetFailure: 1e-3,
			MinBatches:    3,
			MaxBatches:    6,
			CIFrac:        0.3,
			Seed:          uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7MemorylessMBAC(b *testing.B) { benchMBAC(b, "memoryless") }
func BenchmarkFig8PerfectMBAC(b *testing.B)    { benchMBAC(b, "perfect") }
func BenchmarkFig9MemoryMBAC(b *testing.B)     { benchMBAC(b, "memory") }

// --- Section IV-A runtime claim: cost of more bandwidth levels ---

func benchTrellisLevels(b *testing.B, k int) {
	tr := benchTrace(b)
	levels := experiments.FeasibleLevels(tr, 300e3, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := trellis.Optimize(tr, trellis.Options{
			Levels:         levels,
			BufferBits:     300e3,
			BufferGridBits: 300e3 / 2048,
			Cost:           core.CostModel{Alpha: 1e6, Beta: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrellisLevels5(b *testing.B)  { benchTrellisLevels(b, 5) }
func BenchmarkTrellisLevels10(b *testing.B) { benchTrellisLevels(b, 10) }
func BenchmarkTrellisLevels20(b *testing.B) { benchTrellisLevels(b, 20) }
func BenchmarkTrellisLevels50(b *testing.B) { benchTrellisLevels(b, 50) }

// BenchmarkTrellisFullTrace is the full-length StarWars optimization of the
// EXPERIMENTS.md tables. Two hours of video is too heavy for the CI smoke
// run, so it only fires when RCBR_FULL_BENCH is set.
func BenchmarkTrellisFullTrace(b *testing.B) {
	if os.Getenv("RCBR_FULL_BENCH") == "" {
		b.Skip("set RCBR_FULL_BENCH=1 to run the full-trace benchmark")
	}
	tr := experiments.StarWars(1, 0)
	levels := experiments.FeasibleLevels(tr, 300e3, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := trellis.Optimize(tr, trellis.Options{
			Levels:         levels,
			BufferBits:     300e3,
			BufferGridBits: 300e3 / 2048,
			Cost:           core.CostModel{Alpha: 1e6, Beta: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: Lemma-1 pruning rules ---

func benchTrellisPruning(b *testing.B, pr trellis.Pruning, frames int) {
	tr := experiments.StarWars(1, frames)
	levels := experiments.FeasibleLevels(tr, 300e3, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := trellis.Optimize(tr, trellis.Options{
			Levels:         levels,
			BufferBits:     300e3,
			BufferGridBits: 300e3 / 2048,
			Cost:           core.CostModel{Alpha: 1e6, Beta: 1},
			Pruning:        pr,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrellisPruneFull(b *testing.B) {
	benchTrellisPruning(b, trellis.PruneFull, benchFrames)
}
func BenchmarkTrellisPruneSameRate(b *testing.B) {
	benchTrellisPruning(b, trellis.PruneSameRate, benchFrames)
}
func BenchmarkTrellisPruneExact(b *testing.B) {
	// The textbook rule explodes; keep the horizon very short.
	benchTrellisPruning(b, trellis.PruneExact, 120)
}

// --- Ablation: buffer quantization grid ---

func BenchmarkTrellisExactBuffer(b *testing.B) {
	tr := benchTrace(b)
	levels := experiments.FeasibleLevels(tr, 300e3, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := trellis.Optimize(tr, trellis.Options{
			Levels:     levels,
			BufferBits: 300e3,
			Cost:       core.CostModel{Alpha: 1e6, Beta: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: heuristic flush term ---

func benchHeuristicFlush(b *testing.B, disable bool) {
	tr := benchTrace(b)
	p := heuristic.DefaultParams(100e3)
	p.DisableFlushTerm = disable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristic.Run(tr, 600e3, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristicWithFlushTerm(b *testing.B)    { benchHeuristicFlush(b, false) }
func BenchmarkHeuristicWithoutFlushTerm(b *testing.B) { benchHeuristicFlush(b, true) }

// --- Ablation: event-driven vs per-frame call simulation (footnote 4) ---

func BenchmarkCallSimEventDriven(b *testing.B) {
	tr := benchTrace(b)
	sch := benchSchedule(b, tr)
	capacity := 10 * sch.MeanRate()
	lam := callsim.OfferedLoad(0.8, capacity, sch.MeanRate(), sch.DurationSec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := callsim.Run(callsim.Config{
			Schedule:    sch,
			Capacity:    capacity,
			ArrivalRate: lam,
			Controller:  admission.Unlimited{},
			MinBatches:  3,
			MaxBatches:  3,
			CIFrac:      0.3,
			Seed:        uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCallSimPerFrame(b *testing.B) {
	// The naive alternative the paper's footnote 4 avoids: walk every
	// frame slot of every active call. Modeled as the same number of
	// batches over the expanded per-slot rate vectors.
	tr := benchTrace(b)
	sch := benchSchedule(b, tr)
	rates := sch.Rates()
	const activeCalls = 8
	r := stats.NewRNG(7)
	offsets := make([]int, activeCalls)
	for i := range offsets {
		offsets[i] = r.Intn(len(rates))
	}
	capacity := 10 * sch.MeanRate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var failures int
		for batch := 0; batch < 3; batch++ {
			for t := 0; t < len(rates); t++ {
				var demand float64
				for _, off := range offsets {
					demand += rates[(t+off)%len(rates)]
				}
				if demand > capacity {
					failures++
				}
			}
		}
		_ = failures
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkEffectiveBandwidth(b *testing.B) {
	m := markov.PaperExample(1000, 1e-4)
	flat, err := m.Flatten()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ld.EffectiveBandwidth(flat, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChernoffAdmission(b *testing.B) {
	d := ld.Dist{P: []float64{0.7, 0.2, 0.1}, X: []float64{1e5, 3e5, 9e5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.MaxCalls(1e7, 1e-3)
	}
}

func BenchmarkQueueRun(b *testing.B) {
	tr := benchTrace(b)
	arr := queue.Arrivals(tr)
	slot := tr.SlotSeconds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queue.Run(arr, slot, 500e3, 300e3)
	}
}

func BenchmarkSyntheticTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.StarWars(uint64(i+1), benchFrames)
	}
}

// --- Section II baseline: token-bucket characterization ---

func BenchmarkSection2Burstiness(b *testing.B) {
	tr := benchTrace(b)
	rates := []float64{1.05, 1.5, 2, 3, 4}
	for i := range rates {
		rates[i] *= tr.MeanRate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rates {
			shaper.MinDepth(tr, r)
		}
	}
}

// --- Section III data plane: cell-level buffering on the forwarder ---

// BenchmarkMuxcmp is `rcbrsim muxcmp -n 4 -frames 240`: both sides of the
// CBR-vs-bursts comparison through a datapath.Forwarder egress port.
func BenchmarkMuxcmp(b *testing.B) {
	tr := experiments.StarWars(1, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DataPath(tr, 4, tr.MeanRate()*1.2, 0.8, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section III-A.2: book-ahead admission ---

func BenchmarkBookaheadBook(b *testing.B) {
	tr := benchTrace(b)
	sch := benchSchedule(b, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cal := bookahead.NewCalendar(20 * sch.MeanRate())
		for k := 0; k < 16; k++ {
			_, _ = cal.Book(float64(k)*7, sch)
		}
	}
}

// --- Section III-C: multi-hop renegotiation and signaling latency ---

// benchMeshRenegotiate measures an end-to-end increase/decrease pair over a
// chain of nHops switches (delay scaling off, so the cost is the signaling
// walk itself, not modeled propagation).
func benchMeshRenegotiate(b *testing.B, nHops int) {
	m := mesh.New(mesh.WithDelayScale(0))
	names := make([]string, nHops+1)
	for i := 0; i < nHops; i++ {
		names[i] = "s" + strconv.Itoa(i)
		if err := m.AddSwitch(names[i], switchfab.New()); err != nil {
			b.Fatal(err)
		}
	}
	names[nHops] = "sink"
	if err := m.AddHost("sink"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nHops; i++ {
		if err := m.AddLink(names[i], names[i+1], 1, 10e6, time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	hops, err := m.Route(names...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	p, err := m.SetupPath(ctx, switchfab.MakeVCID(0, 1), hops, 100e3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Renegotiate(ctx, 500e3); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Renegotiate(ctx, 100e3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeshRenegotiate1(b *testing.B) { benchMeshRenegotiate(b, 1) }
func BenchmarkMeshRenegotiate4(b *testing.B) { benchMeshRenegotiate(b, 4) }
func BenchmarkMeshRenegotiate8(b *testing.B) { benchMeshRenegotiate(b, 8) }

func BenchmarkHeuristicWithSignalDelay(b *testing.B) {
	tr := benchTrace(b)
	p := heuristic.DefaultParams(100e3)
	p.SignalDelaySlots = 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristic.Run(tr, 600e3, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Signaling plane micro-benchmarks ---

func BenchmarkRMCellRoundTrip(b *testing.B) {
	h := cell.Header{VCI: 42}
	m := cell.RM{ER: 128e3, Seq: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := cell.Build(h, m)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := cell.Parse(raw[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Switch fabric at scale (tracked subset of internal/switchfab) ---

// benchFabricSwitch builds a fabric with vcs established circuits striped
// over 64 ports.
func benchFabricSwitch(b *testing.B, vcs int) *switchfab.Switch {
	b.Helper()
	sw := switchfab.New()
	const ports = 64
	for p := 0; p < ports; p++ {
		if err := sw.AddPort(p, 1e12); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < vcs; i++ {
		id := switchfab.MakeVCID(uint8(i>>16), uint16(i))
		if err := sw.SetupID(id, i%ports, 100e3); err != nil {
			b.Fatal(err)
		}
	}
	return sw
}

func BenchmarkFabricRM64k(b *testing.B) {
	const vcs = 65536
	sw := benchFabricSwitch(b, vcs)
	m := cell.RM{Resync: true, ER: 100e3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % vcs
		id := switchfab.MakeVCID(uint8(idx>>16), uint16(idx))
		h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
		if _, err := sw.HandleRM(h, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwitchHandleRM(b *testing.B) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 155e6); err != nil {
		b.Fatal(err)
	}
	if err := sw.Setup(1, 1, 374e3); err != nil {
		b.Fatal(err)
	}
	h := cell.Header{VCI: 1}
	up := cell.RM{ER: 64e3}
	down := cell.RM{ER: 64e3, Decrease: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.HandleRM(h, up); err != nil {
			b.Fatal(err)
		}
		if _, err := sw.HandleRM(h, down); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Call-scale churn: the setup path after the global-mutex removal ---

// benchChurnResident is the population a churn benchmark's switch already
// carries: the even VCIs of VPI 0.
const benchChurnResident = 32768

// benchChurnSwitch is a fabric sized for setup benchmarks: capacity out of
// the way so the measured cost is the signaling path, not blocking, and a
// resident population on the even VCIs of VPI 0. Calls churn on the odd
// VCIs in between (benchChurnID), so a call arrives into table pages that
// other VCs already hold, as it does on a switch in service. The price of
// the first VC in a page — one or two 2 KB pages allocated, and dropped
// again when it leaves — is recorded in EXPERIMENTS.md instead.
func benchChurnSwitch(b *testing.B, opts ...switchfab.Option) *switchfab.Switch {
	b.Helper()
	sw := switchfab.New(opts...)
	for p := 0; p < 64; p++ {
		if err := sw.AddPort(p, 1e12); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < benchChurnResident; i++ {
		if err := sw.SetupID(switchfab.MakeVCID(0, uint16(2*i)), i%64, 64e3); err != nil {
			b.Fatal(err)
		}
	}
	return sw
}

// benchChurnID is the i-th churned call's VC: the odd VCIs of VPI 0, round
// and round.
func benchChurnID(i int) switchfab.VCID {
	return switchfab.MakeVCID(0, uint16(2*(i%benchChurnResident)+1))
}

// BenchmarkSetupChurnSerial measures one setup/teardown pair on a single
// goroutine — the per-call floor of the concurrent setup path.
func BenchmarkSetupChurnSerial(b *testing.B) {
	sw := benchChurnSwitch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := benchChurnID(i)
		if err := sw.SetupID(id, i%64, 100e3); err != nil {
			b.Fatal(err)
		}
		if err := sw.TeardownID(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetupChurnParallel runs setup/teardown pairs from concurrent
// goroutines striped across ports. Contention is only among pairs landing
// on the same port, plus the table's writer mutex for the publish itself.
// Each goroutine churns its own block of the odd VCIs, so no two ever hold
// the same id however long one of them is descheduled.
func BenchmarkSetupChurnParallel(b *testing.B) {
	sw := benchChurnSwitch(b)
	block := benchChurnResident / runtime.GOMAXPROCS(0) // RunParallel starts GOMAXPROCS goroutines
	var workers atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := int(workers.Add(1)-1) * block
		for k := 0; pb.Next(); k++ {
			i := base + k%block
			id := benchChurnID(i)
			if err := sw.SetupID(id, i%64, 100e3); err != nil {
				b.Fatal(err)
			}
			if err := sw.TeardownID(id); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSetupChurnMemoryAdmit is the serial pair with the live
// memory-based MBAC in the loop: setup cost including the Chernoff admit
// decision and the lifecycle bookkeeping.
func BenchmarkSetupChurnMemoryAdmit(b *testing.B) {
	ad, err := switchfab.NewMemoryAdmitter([]float64{64e3, 512e3, 1e6, 2e6, 4e6}, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	sw := benchChurnSwitch(b, switchfab.WithAdmitter(ad))
	rates := []float64{64e3, 512e3, 1e6, 2e6, 4e6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := benchChurnID(i)
		if err := sw.SetupID(id, i%64, rates[i%len(rates)]); err != nil {
			b.Fatal(err)
		}
		if err := sw.TeardownID(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetupChurnWired is the serial pair on a switch wired the way a
// live one is, and the way bench/'s cells-churn wires it: registry, memory
// admitter over seven levels, forwarder behind WithDataPlane. It prices a
// setup with everything a live setup pays for: the admit decision, the call
// record, the forwarder's entry and whatever the registry adds.
func BenchmarkSetupChurnWired(b *testing.B) {
	ad, err := switchfab.NewMemoryAdmitter(benchMBACLevels, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	reg := metrics.NewRegistry()
	fw := datapath.New(datapath.WithMetrics(reg))
	for p := 0; p < 64; p++ {
		if _, err := fw.AddPort(p); err != nil {
			b.Fatal(err)
		}
	}
	sw := benchChurnSwitch(b, switchfab.WithAdmitter(ad), switchfab.WithDataPlane(fw), switchfab.WithMetrics(reg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := benchChurnID(i)
		if err := sw.SetupID(id, i%64, benchMBACLevels[i%len(benchMBACLevels)]); err != nil {
			b.Fatal(err)
		}
		if err := sw.TeardownID(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitDecisionMemoryLive isolates the admit decision itself with
// 10,000 calls of history in the pool — the O(levels) incremental estimate
// that replaces Memory's O(calls) scan.
func BenchmarkAdmitDecisionMemoryLive(b *testing.B) {
	levels := []float64{64e3, 512e3, 1e6, 2e6, 4e6}
	ctl, err := admission.NewLiveMemory(levels, 1e12, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		ctl.Enter(admission.NewCall(), float64(i)*0.01, levels[i%len(levels)])
	}
	now := 10_000 * 0.01
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Admit(now+float64(i)*1e-6, 64e3)
	}
}

// benchMBACLevels is the level set of the MBAC benchmarks: 1..7 Mb/s.
var benchMBACLevels = []float64{1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6}

// BenchmarkRenegotiateMemoryAdmit is the paper's lightweight path on a
// switch wired the way a live one is — memory admitter, forwarder behind
// WithDataPlane, registry — carrying 100,000 VCs over 4 ports: one op is
// RenegotiateID of a randomly picked VC to a randomly picked level (seeded,
// drawn before the timer starts), so nearly every op is a granted rate
// change that moves the call's MBAC record and retargets its shaper. It is
// under benchjson's zero-alloc gate.
func BenchmarkRenegotiateMemoryAdmit(b *testing.B) {
	const vcs, ports = 100_000, 4
	ad, err := switchfab.NewMemoryAdmitter(benchMBACLevels, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	reg := metrics.NewRegistry()
	fw := datapath.New(datapath.WithMetrics(reg))
	sw := switchfab.New(switchfab.WithAdmitter(ad), switchfab.WithDataPlane(fw), switchfab.WithMetrics(reg))
	for p := 0; p < ports; p++ {
		if _, err := fw.AddPort(p); err != nil {
			b.Fatal(err)
		}
		if err := sw.AddPort(p, 1e12); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < vcs; i++ {
		if err := sw.SetupID(switchfab.VCID(i), i%ports, benchMBACLevels[0]); err != nil {
			b.Fatal(err)
		}
	}
	type pick struct {
		id   switchfab.VCID
		rate float64
	}
	rng := stats.NewRNG(15)
	picks := make([]pick, 1<<16)
	for i := range picks {
		picks[i] = pick{switchfab.VCID(rng.Intn(vcs)), benchMBACLevels[rng.Intn(len(benchMBACLevels))]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk := picks[i%len(picks)]
		if _, ok, err := sw.RenegotiateID(pk.id, pk.rate); err != nil || !ok {
			b.Fatalf("renegotiate %s: ok=%v err=%v", pk.id, ok, err)
		}
	}
}

// BenchmarkChurnBytesPerVC reports the retained switch-side bytes per
// established VC (heap growth across b.N setups after forced collections,
// divided by b.N) as a custom "bytes/vc" metric alongside the setup rate.
// No admitter is installed: this is the fabric-only floor — the VC record
// and its table slot — which no switch running MBAC can reach; see
// BenchmarkChurnBytesPerVCMemoryAdmit for that one.
func BenchmarkChurnBytesPerVC(b *testing.B) { benchChurnBytesPerVC(b) }

// BenchmarkChurnBytesPerVCMemoryAdmit is BenchmarkChurnBytesPerVC with the
// live memory-based MBAC installed: the floor plus the call record the
// admitter hangs on every VC.
func BenchmarkChurnBytesPerVCMemoryAdmit(b *testing.B) {
	ad, err := switchfab.NewMemoryAdmitter(benchMBACLevels, 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	benchChurnBytesPerVC(b, switchfab.WithAdmitter(ad))
}

func benchChurnBytesPerVC(b *testing.B, opts ...switchfab.Option) {
	sw := benchChurnSwitch(b, opts...)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := switchfab.VCID(1<<16 + i) // VPI 1 upward: clear of the resident VCs
		if err := sw.SetupID(id, i%64, 100e3); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Without this the switch is unreachable after its last loop use and the
	// forced GC collects every VC before the measurement.
	runtime.KeepAlive(sw)
	if after.HeapInuse > before.HeapInuse {
		b.ReportMetric(float64(after.HeapInuse-before.HeapInuse)/float64(b.N), "bytes/vc")
	}
}

// --- Wire-speed cell data path (internal/datapath) ---

// benchDataPathForward measures the steady-state forwarding loop: every
// cycle injects a fixed batch of prebuilt data cells striped across the
// ports, runs one Forward sweep, and drains every egress ring. Shaper rates
// are set far above the offered load so the hot path runs end to end
// (header parse, VC lookup, token accounting, egress push) without
// policing, and the reported cells/s is pure forwarding throughput.
// The ring alone, in the two forms the cell path uses it: 64 cells through
// an SPSC ring one cursor store per cell on each side (Inject's form), and
// the same 64 staged, published once, read in place and released once (the
// sweep's and the transmitter's form). One op is 64 cells in both, so the
// ratio of the two ns/op is what a burst saves on one hop.
func BenchmarkRingPerCell64(b *testing.B) {
	r := datapath.NewRing(datapath.DefaultRingCells)
	var c datapath.Cell
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			if !r.Push(&c) {
				b.Fatal("ring full")
			}
		}
		for j := 0; j < 64; j++ {
			if r.Peek() == nil {
				b.Fatal("ring empty")
			}
			r.Advance()
		}
	}
}

// ringBenchSink keeps the burst benchmark's in-place reads alive.
var ringBenchSink byte

func BenchmarkRingBurst64(b *testing.B) {
	r := datapath.NewRing(datapath.DefaultRingCells)
	var c datapath.Cell
	var sum byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			if !r.Stage(&c) {
				b.Fatal("ring full")
			}
		}
		r.Publish()
		n := r.Ready(64)
		if n != 64 {
			b.Fatalf("%d cells ready, want 64", n)
		}
		for j := 0; j < n; j++ {
			sum += r.At(j)[0]
		}
		r.Release(n)
	}
	ringBenchSink = sum
}

func benchDataPathForward(b *testing.B, ports, vcs int) {
	f := datapath.New()
	pl := make([]*datapath.Port, ports)
	for p := 0; p < ports; p++ {
		var err error
		if pl[p], err = f.AddPort(p); err != nil {
			b.Fatal(err)
		}
	}
	cells := make([]datapath.Cell, vcs)
	for i := 0; i < vcs; i++ {
		id := switchfab.MakeVCID(uint8(i>>16), uint16(i))
		if err := f.AddVC(id, (i+1)%ports, 1e12); err != nil {
			b.Fatal(err)
		}
		h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
		if err := cell.PutData(&cells[i], h, nil); err != nil {
			b.Fatal(err)
		}
	}
	const perPort = 64
	batch := perPort * ports
	now := int64(0)
	vc := 0
	var moved int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += int64(time.Millisecond)
		for j := 0; j < batch; j++ {
			if !f.Inject(pl[vc%ports], &cells[vc]) {
				b.Fatal("ingress ring full")
			}
			vc++
			if vc == vcs {
				vc = 0
			}
		}
		moved += int64(f.Forward(now))
		for _, p := range pl {
			f.Transmit(p, batch)
		}
	}
	b.StopTimer()
	if moved != int64(b.N)*int64(batch) {
		b.Fatalf("moved %d of %d cells (policed or stuck)", moved, int64(b.N)*int64(batch))
	}
	b.ReportMetric(float64(moved)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkDataPathForward1Port1kVC(b *testing.B)   { benchDataPathForward(b, 1, 1024) }
func BenchmarkDataPathForward4Port1kVC(b *testing.B)   { benchDataPathForward(b, 4, 1024) }
func BenchmarkDataPathForward8Port1kVC(b *testing.B)   { benchDataPathForward(b, 8, 1024) }
func BenchmarkDataPathForward1Port100kVC(b *testing.B) { benchDataPathForward(b, 1, 100_000) }
func BenchmarkDataPathForward4Port100kVC(b *testing.B) { benchDataPathForward(b, 4, 100_000) }
func BenchmarkDataPathForward8Port100kVC(b *testing.B) { benchDataPathForward(b, 8, 100_000) }

// BenchmarkDataPathRelaySlot prices a sweep at batch-of-one: one op is one
// cell slot of a 3-hop mesh.CellPath — a Forward and a one-cell Transmit at
// every hop, the links in between — carrying 16 VCs whose aggregate is
// 1/1.2 of the line rate (five slots in six bring a cell), so a sweep finds
// at most a cell or two on a port. That is the regime a slot-driven relay
// lives in, where a burst amortises nothing and any fixed per-sweep cost
// shows in full; the DataPathForward benchmarks above, at 64 cells per
// port, would hide it. The BenchmarkDataPath prefix puts it under
// cmd/benchjson's zero-alloc gate.
func BenchmarkDataPathRelaySlot(b *testing.B) { benchDataPathRelaySlot(b, nil) }

// BenchmarkDataPathRelaySlotMetrics is the same relay with every hop
// publishing into a registry: the ratio of the two is what telemetry costs
// a slot. It should cost nothing: the batch histogram is two plain adds
// under the sweep lock, which a bare forwarder makes too, and the registry
// reads it, like the cell counters, through views only when it is read.
func BenchmarkDataPathRelaySlotMetrics(b *testing.B) {
	benchDataPathRelaySlot(b, metrics.NewRegistry())
}

func benchDataPathRelaySlot(b *testing.B, reg *metrics.Registry) {
	const (
		hops      = 3
		vcs       = 16
		linkSlots = 2
		slotNanos = 2726 // one cell time at 155.52 Mb/s
	)
	// Each VC is granted a sixteenth of the line and offers 1/1.2 of that.
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
				b.Fatal(err)
			}
		}
		for _, id := range ids {
			if err := fw.AddVC(id, 1, grant); err != nil {
				b.Fatal(err)
			}
		}
		cellHops[k] = mesh.CellHop{FW: fw, In: 0, Out: 1, DelaySlots: linkSlots}
	}
	cp, err := mesh.NewCellPath(cellHops, slotNanos)
	if err != nil {
		b.Fatal(err)
	}
	slot, vc := int64(0), 0
	step := func() {
		if slot%6 != 5 {
			cp.InjectStamped(ids[vc], slot)
			vc = (vc + 1) % vcs
		}
		cp.Step(slot)
		slot++
	}
	for i := 0; i < 1000; i++ { // fill the pipeline
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	for i := 0; i < 1000 && cp.Stats().Delivered < cp.Stats().Injected; i++ {
		cp.Step(slot)
		slot++
	}
	if s := cp.Stats(); s.Delivered != s.Injected || s.LinkDrops != 0 {
		b.Fatalf("relay lost cells (policed, overflowed or stuck): %+v", s)
	}
}

// --- Data-cell codec (tracked subset of internal/cell) ---

func BenchmarkFabricCellAppend(b *testing.B) {
	h := cell.Header{VPI: 3, VCI: 42}
	payload := make([]byte, cell.PayloadSize)
	buf := make([]byte, 0, cell.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = cell.AppendData(buf[:0], h, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFabricCellParse(b *testing.B) {
	var raw [cell.Size]byte
	if err := cell.PutData(&raw, cell.Header{VPI: 3, VCI: 42}, []byte("x")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cell.ParseData(raw[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricCellVCID times what the forwarder reads of a cell's header:
// its VC id and HEC verdict, with no Header built (cell.VCID).
func BenchmarkFabricCellVCID(b *testing.B) {
	var raw [cell.Size]byte
	if err := cell.PutData(&raw, cell.Header{VPI: 3, VCI: 42}, []byte("x")); err != nil {
		b.Fatal(err)
	}
	want := uint32(switchfab.MakeVCID(3, 42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if id, ok := cell.VCID(raw[:]); !ok || id != want {
			b.Fatal(id, ok)
		}
	}
}
