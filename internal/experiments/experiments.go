// Package experiments wires the substrates into the paper's evaluation: one
// entry point per figure, shared by cmd/rcbrsim (full scale) and the
// repository benchmarks (reduced scale). Each function returns plain row
// structs so callers can render tables or CSV.
package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"

	"rcbr/internal/admission"
	"rcbr/internal/callsim"
	"rcbr/internal/core"
	"rcbr/internal/heuristic"
	"rcbr/internal/ld"
	"rcbr/internal/markov"
	"rcbr/internal/queue"
	"rcbr/internal/smg"
	"rcbr/internal/stats"
	"rcbr/internal/trace"
	"rcbr/internal/trellis"
)

// StarWars builds the repository's stand-in for the paper's trace at the
// given length (frames <= 0 means the full two hours).
func StarWars(seed uint64, frames int) *trace.Trace {
	if frames <= 0 {
		frames = trace.DefaultStarWarsConfig().Frames
	}
	return trace.SyntheticStarWarsFrames(seed, frames)
}

// FeasibleLevels returns K uniform levels from 48 kb/s up to a top level
// guaranteed to make the trellis problem feasible for the given trace and
// buffer: the larger of the paper's 2.4 Mb/s and the trace's zero-loss CBR
// rate at that buffer (with 2% headroom). The paper's fixed range suffices
// for its trace; synthetic traces with hotter peak scenes need the raised
// ceiling.
func FeasibleLevels(tr *trace.Trace, bufferBits float64, k int) []float64 {
	top := 2.4e6
	need := queue.MinRateForLoss(queue.Arrivals(tr), tr.SlotSeconds(), bufferBits, 0)
	if need*1.02 > top {
		top = need * 1.02
	}
	return stats.UniformLevels(48e3, top, k)
}

// FeasibleGridLevels is FeasibleLevels on a fixed granularity grid (the
// Delta-spaced level set of the Fig. 6 schedule).
func FeasibleGridLevels(tr *trace.Trace, bufferBits, delta float64) []float64 {
	top := 2.4e6
	need := queue.MinRateForLoss(queue.Arrivals(tr), tr.SlotSeconds(), bufferBits, 0)
	if need*1.02 > top {
		top = need * 1.02
	}
	return stats.GridLevels(delta, top)
}

// OptimalSchedule computes the offline schedule the multiplexing and
// admission experiments build on: the paper's Fig. 6 setup uses granularity
// 64 kb/s and a cost ratio yielding one renegotiation every ~12 s.
func OptimalSchedule(tr *trace.Trace, bufferBits, alpha float64, levels []float64) (*core.Schedule, error) {
	sch, _, err := trellis.Optimize(tr, trellis.Options{
		Levels:         levels,
		BufferBits:     bufferBits,
		BufferGridBits: bufferBits / 2048,
		Cost:           core.CostModel{Alpha: alpha, Beta: 1},
	})
	return sch, err
}

// ------------------------------- Fig. 2 --------------------------------

// Fig2Config parameterizes the renegotiation-frequency vs bandwidth-
// efficiency tradeoff experiment.
type Fig2Config struct {
	Trace      *trace.Trace
	BufferBits float64   // 300 kb in the paper
	Levels     []float64 // OPT level set (paper: 20 uniform levels)
	Alphas     []float64 // OPT cost-ratio sweep (beta fixed at 1)
	Deltas     []float64 // heuristic granularity sweep (paper: 25..400 kb/s)
}

// Fig2Row is one point of Fig. 2.
type Fig2Row struct {
	Kind             string  // "OPT" or "AR1"
	Param            float64 // alpha (OPT) or delta (AR1)
	Renegotiations   int
	RenegIntervalSec float64
	Efficiency       float64
	MaxOccupancyBits float64 // heuristic only; OPT respects B by construction
}

// DefaultFig2Config returns the paper's parameters over the given trace.
func DefaultFig2Config(tr *trace.Trace) Fig2Config {
	return Fig2Config{
		Trace:      tr,
		BufferBits: 300e3,
		Levels:     FeasibleLevels(tr, 300e3, 20),
		Alphas:     []float64{3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7},
		Deltas:     []float64{25e3, 50e3, 100e3, 200e3, 400e3},
	}
}

// Fig2 computes both curves of Fig. 2. The OPT points (one trellis
// optimization per alpha) and the AR1 points (one heuristic run per delta)
// are independent grid points, so they all go through one Sweep; rows come
// back in the serial order — every alpha, then every delta.
func Fig2(ctx context.Context, cfg Fig2Config) ([]Fig2Row, error) {
	if cfg.Trace == nil || cfg.Trace.Len() == 0 {
		return nil, fmt.Errorf("experiments: missing trace")
	}
	nA := len(cfg.Alphas)
	return Sweep(ctx, nA+len(cfg.Deltas),
		func(_ context.Context, i int) (Fig2Row, error) {
			if i < nA {
				alpha := cfg.Alphas[i]
				sch, _, err := trellis.Optimize(cfg.Trace, trellis.Options{
					Levels:         cfg.Levels,
					BufferBits:     cfg.BufferBits,
					BufferGridBits: cfg.BufferBits / 2048,
					Cost:           core.CostModel{Alpha: alpha, Beta: 1},
				})
				if err != nil {
					return Fig2Row{}, fmt.Errorf("experiments: fig2 OPT alpha %g: %w", alpha, err)
				}
				return Fig2Row{
					Kind:             "OPT",
					Param:            alpha,
					Renegotiations:   sch.Renegotiations(),
					RenegIntervalSec: sch.MeanRenegIntervalSec(),
					Efficiency:       sch.BandwidthEfficiency(cfg.Trace),
				}, nil
			}
			delta := cfg.Deltas[i-nA]
			res, err := heuristic.Run(cfg.Trace, cfg.BufferBits,
				heuristic.DefaultParams(delta), nil)
			if err != nil {
				return Fig2Row{}, fmt.Errorf("experiments: fig2 AR1 delta %g: %w", delta, err)
			}
			return Fig2Row{
				Kind:             "AR1",
				Param:            delta,
				Renegotiations:   res.Schedule.Renegotiations(),
				RenegIntervalSec: res.Schedule.MeanRenegIntervalSec(),
				Efficiency:       res.Schedule.BandwidthEfficiency(cfg.Trace),
				MaxOccupancyBits: res.MaxOccupancy,
			}, nil
		})
}

// ------------------------------- Fig. 5 --------------------------------

// Fig5 computes the (c, B) curve: minimum CBR rate vs buffer size at the
// loss target (paper: 1e-6), over logarithmically spaced buffers.
func Fig5(tr *trace.Trace, lossTarget float64, bufLo, bufHi float64, points int) []queue.CBPoint {
	return queue.CBCurve(tr, queue.LogSpace(bufLo, bufHi, points), lossTarget)
}

// ------------------------------- Fig. 6 --------------------------------

// Fig6Config parameterizes the SMG comparison.
type Fig6Config struct {
	Trace      *trace.Trace
	Schedule   *core.Schedule
	BufferBits float64
	LossTarget float64
	Ns         []int
	MinReps    int
	MaxReps    int
	Seed       uint64
}

// DefaultFig6Config builds the paper's setup: B = 300 kb, loss 1e-6,
// schedule granularity 64 kb/s, and the offline optimal schedule at
// renegotiation cost alpha. On the default 28,800-frame trace alpha = 3e6
// renegotiates once every 27.9 s and alpha = 1e6 once every 16.9 s (the
// headers of results/fig6.txt and fig6_12s.txt).
func DefaultFig6Config(tr *trace.Trace, alpha float64) (Fig6Config, error) {
	levels := FeasibleGridLevels(tr, 300e3, 64e3)
	sch, err := OptimalSchedule(tr, 300e3, alpha, levels)
	if err != nil {
		return Fig6Config{}, err
	}
	return Fig6Config{
		Trace:      tr,
		Schedule:   sch,
		BufferBits: 300e3,
		LossTarget: 1e-6,
		Ns:         []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000},
		MinReps:    3,
		MaxReps:    20,
		Seed:       1,
	}, nil
}

// Fig6 computes the three per-stream capacity curves. Each source count is
// an independent grid point: smg.SharedRate and smg.RCBRRate reseed their
// phasing RNGs from cfg.Seed, so the points do not depend on how many
// counts are searched at once.
func Fig6(ctx context.Context, cfg Fig6Config) ([]smg.Point, error) {
	smgCfg := smg.Config{
		Trace:      cfg.Trace,
		Schedule:   cfg.Schedule,
		BufferBits: cfg.BufferBits,
		LossTarget: cfg.LossTarget,
		MinReps:    cfg.MinReps,
		MaxReps:    cfg.MaxReps,
		CIFrac:     0.2,
		Seed:       cfg.Seed,
	}
	if err := smgCfg.Validate(); err != nil {
		return nil, err
	}
	cbr := smg.CBRRate(cfg.Trace, cfg.BufferBits, cfg.LossTarget)
	return Sweep(ctx, len(cfg.Ns),
		func(_ context.Context, i int) (smg.Point, error) {
			n := cfg.Ns[i]
			shared, _, err := smg.SharedRate(smgCfg, n)
			if err != nil {
				return smg.Point{}, err
			}
			rcbr, _, err := smg.RCBRRate(smgCfg, n)
			if err != nil {
				return smg.Point{}, err
			}
			return smg.Point{N: n, CBR: cbr, Shared: shared, RCBR: rcbr}, nil
		})
}

// ---------------------------- Figs. 7, 8, 9 ----------------------------

// MBACConfig parameterizes the admission-control experiments.
type MBACConfig struct {
	// Schedule is the per-call template.
	Schedule *core.Schedule
	// Levels is the bandwidth level set for the estimators.
	Levels []float64
	// CapacityMultiples expresses link capacities as multiples of the call
	// average rate (the paper sweeps small to large links).
	CapacityMultiples []float64
	// Loads is the normalized offered load sweep (offered bandwidth over
	// capacity).
	Loads []float64
	// TargetFailure is the QoS target (paper: 1e-3).
	TargetFailure float64
	// Schemes selects controllers: any of "perfect", "memoryless",
	// "memory". The perfect scheme always runs as the normalizer.
	Schemes []string
	// MinBatches, MaxBatches and CIFrac drive the batch stopping rule.
	MinBatches, MaxBatches int
	CIFrac                 float64
	Seed                   uint64
}

// MBACRow is one cell of Figs. 7/8 (or the Fig. 9 extension).
type MBACRow struct {
	Scheme       string
	CapacityX    float64 // capacity / call mean rate
	Load         float64 // normalized offered load
	FailureProb  float64
	FailureCI    float64
	Utilization  float64
	NormUtil     float64 // utilization / perfect-knowledge utilization
	BlockingProb float64
	Batches      int
	BelowTarget  bool
	PerfectFail  float64
	PerfectUtil  float64
}

// DefaultMBACConfig returns the paper's sweep for the given schedule.
func DefaultMBACConfig(sch *core.Schedule) MBACConfig {
	return MBACConfig{
		Schedule:          sch,
		Levels:            stats.GridLevels(64e3, 2.4e6),
		CapacityMultiples: []float64{10, 25, 50, 100},
		Loads:             []float64{0.4, 0.6, 0.8, 1.0, 1.2},
		TargetFailure:     1e-3,
		Schemes:           []string{"memoryless"},
		MinBatches:        4,
		MaxBatches:        40,
		CIFrac:            0.2,
		Seed:              3,
	}
}

// newController builds the named admission controller.
func newController(name string, dist ld.Dist, levels []float64, capacity, target float64) (admission.Controller, error) {
	switch name {
	case "perfect":
		return admission.NewPerfectKnowledge(dist, capacity, target)
	case "memoryless":
		return admission.NewMemoryless(levels, capacity, target)
	case "memory":
		return admission.NewMemory(levels, capacity, target)
	case "unlimited":
		return admission.Unlimited{}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", name)
	}
}

// MBAC runs the admission sweep. For every (capacity, load) cell it first
// runs the perfect-knowledge benchmark, then each requested scheme,
// normalizing utilization by the benchmark's (Fig. 8's y-axis). Cells are
// independent, so they sweep concurrently; the per-run seeds reproduce the
// historical serial sequence (a global run counter m, with run m seeded
// cfg.Seed*1000 + cfg.Seed + m) so the rows match the serial sweep bit for
// bit.
func MBAC(ctx context.Context, cfg MBACConfig) ([]MBACRow, error) {
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("experiments: missing schedule")
	}
	for _, v := range slices.Concat(cfg.CapacityMultiples, cfg.Loads) {
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("experiments: capacity multiple or load %g is not positive and finite", v)
		}
	}
	desc := cfg.Schedule.Descriptor(cfg.Levels)
	dist := ld.Dist{P: desc.Probabilities(), X: desc.Levels()}
	meanRate := cfg.Schedule.MeanRate()
	dur := cfg.Schedule.DurationSec()
	runsPerCell := 1 + len(cfg.Schemes) // perfect + each scheme

	perCell, err := Sweep(ctx, len(cfg.CapacityMultiples)*len(cfg.Loads),
		func(_ context.Context, cell int) ([]MBACRow, error) {
			capX := cfg.CapacityMultiples[cell/len(cfg.Loads)]
			load := cfg.Loads[cell%len(cfg.Loads)]
			capacity := capX * meanRate
			lam := callsim.OfferedLoad(load, capacity, meanRate, dur)
			run := func(name string, runIdx int) (callsim.Result, error) {
				ctrl, err := newController(name, dist, cfg.Levels, capacity, cfg.TargetFailure)
				if err != nil {
					return callsim.Result{}, err
				}
				m := uint64(cell*runsPerCell + runIdx + 1)
				return callsim.Run(callsim.Config{
					Schedule:      cfg.Schedule,
					Capacity:      capacity,
					ArrivalRate:   lam,
					Controller:    ctrl,
					TargetFailure: cfg.TargetFailure,
					MinBatches:    cfg.MinBatches,
					MaxBatches:    cfg.MaxBatches,
					CIFrac:        cfg.CIFrac,
					Seed:          cfg.Seed*1000 + cfg.Seed + m,
				})
			}
			perfect, err := run("perfect", 0)
			if err != nil {
				return nil, err
			}
			rows := make([]MBACRow, 0, len(cfg.Schemes))
			for si, scheme := range cfg.Schemes {
				res, err := run(scheme, si+1)
				if err != nil {
					return nil, err
				}
				norm := math.Inf(1)
				if perfect.Utilization > 0 {
					norm = res.Utilization / perfect.Utilization
				}
				rows = append(rows, MBACRow{
					Scheme:       scheme,
					CapacityX:    capX,
					Load:         load,
					FailureProb:  res.FailureProb,
					FailureCI:    res.FailureCI,
					Utilization:  res.Utilization,
					NormUtil:     norm,
					BlockingProb: res.BlockingProb,
					Batches:      res.Batches,
					BelowTarget:  res.ConfidentBelowTarget,
					PerfectFail:  perfect.FailureProb,
					PerfectUtil:  perfect.Utilization,
				})
			}
			return rows, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []MBACRow
	for _, rs := range perCell {
		rows = append(rows, rs...)
	}
	return rows, nil
}

// ------------------------------ Analysis -------------------------------

// AnalysisRow compares eq. (10) and eq. (11) at one capacity point.
type AnalysisRow struct {
	CPerOverMean float64
	N            int
	SharedLoss   float64 // eq. 10
	RCBRFailure  float64 // eq. 11
}

// AnalysisResult reports the Section V-A large-deviations analysis on the
// Fig. 4 three-subchain example.
type AnalysisResult struct {
	MeanRate   float64
	SubchainEB []float64
	WholeEB    float64 // eq. 9
	MaxSubMean float64
	Rows       []AnalysisRow
}

// Analysis evaluates eqs. (9)-(11) on markov.PaperExample. The three are
// limits as the slow transition probability ε goes to 0 — none reads it —
// so the example is built at ε = 0.
func Analysis(mean, bufferBits, lossTarget float64, ns []int) (AnalysisResult, error) {
	m := markov.PaperExample(mean, 0)
	bw, err := ld.MTSEffectiveBandwidth(m, bufferBits, lossTarget)
	if err != nil {
		return AnalysisResult{}, err
	}
	mu, err := m.MeanRate()
	if err != nil {
		return AnalysisResult{}, err
	}
	out := AnalysisResult{
		MeanRate:   mu,
		SubchainEB: bw.Sub,
		WholeEB:    bw.Whole,
		MaxSubMean: bw.MaxSubMean,
	}
	for _, n := range ns {
		for _, mult := range []float64{1.2, 1.5, 2.0} {
			cPer := mult * mu
			shared, err := ld.SharedBufferLoss(m, cPer, n)
			if err != nil {
				return AnalysisResult{}, err
			}
			rcbr, err := ld.RCBRFailure(m, bufferBits, lossTarget, cPer, n)
			if err != nil {
				return AnalysisResult{}, err
			}
			out.Rows = append(out.Rows, AnalysisRow{
				CPerOverMean: mult,
				N:            n,
				SharedLoss:   shared,
				RCBRFailure:  rcbr,
			})
		}
	}
	return out, nil
}
