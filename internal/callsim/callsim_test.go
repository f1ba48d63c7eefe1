package callsim

import (
	"fmt"
	"math"
	"testing"

	"rcbr/internal/admission"
	"rcbr/internal/core"
	"rcbr/internal/ld"
	"rcbr/internal/stats"
	"rcbr/internal/trace"
	"rcbr/internal/trellis"
)

// testSchedule builds a small schedule with realistic multi-level structure.
func testSchedule(t *testing.T) (*core.Schedule, *trace.Trace) {
	t.Helper()
	tr := trace.SyntheticStarWarsFrames(41, 2400) // 100 s
	sch, _, err := trellis.Optimize(tr, trellis.Options{
		Levels:         stats.UniformLevels(48e3, 3e6, 12),
		BufferBits:     300e3,
		BufferGridBits: 300e3 / 2048,
		Cost:           core.CostModel{Alpha: 3e5, Beta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sch, tr
}

func baseConfig(sch *core.Schedule, capacity, arrivalRate float64) Config {
	return Config{
		Schedule:      sch,
		Capacity:      capacity,
		ArrivalRate:   arrivalRate,
		Controller:    admission.Unlimited{},
		TargetFailure: 1e-3,
		MinBatches:    4,
		MaxBatches:    20,
		CIFrac:        0.3,
		Seed:          11,
	}
}

func TestConfigValidate(t *testing.T) {
	sch, _ := testSchedule(t)
	good := baseConfig(sch, 10e6, 0.1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Schedule = nil },
		func(c *Config) { c.Capacity = 0 },
		func(c *Config) { c.ArrivalRate = 0 },
		func(c *Config) { c.Controller = nil },
		func(c *Config) { c.MinBatches = 0 },
		func(c *Config) { c.MaxBatches = 2; c.MinBatches = 4 },
		func(c *Config) { c.CIFrac = 0 },
		func(c *Config) { c.TargetFailure = 1 },
		func(c *Config) { c.Capacity = math.NaN() },
		func(c *Config) { c.ArrivalRate = math.NaN() },
		func(c *Config) { c.CIFrac = math.NaN() },
		func(c *Config) { c.TargetFailure = math.NaN() },
		func(c *Config) { c.JumpRate = math.NaN() },
	}
	for i, mutate := range mutations {
		cfg := baseConfig(sch, 10e6, 0.1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestHugeLinkNoFailures(t *testing.T) {
	sch, tr := testSchedule(t)
	// Capacity far above any plausible demand: no failures, no blocking.
	cfg := baseConfig(sch, 1e12, 0.2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 || res.Blocked != 0 {
		t.Fatalf("failures=%d blocked=%d on an infinite link", res.Failures, res.Blocked)
	}
	if res.Attempts == 0 {
		t.Fatal("no renegotiation attempts recorded")
	}
	if res.Utilization <= 0 || res.Utilization > 0.01 {
		t.Fatalf("utilization = %v on a huge link", res.Utilization)
	}
	// Offered load sanity: lambda*duration calls in system on average.
	wantCalls := cfg.ArrivalRate * sch.DurationSec()
	if math.Abs(res.MeanCalls-wantCalls)/wantCalls > 0.5 {
		t.Fatalf("mean calls %v, want ~%v", res.MeanCalls, wantCalls)
	}
	_ = tr
}

func TestTightLinkFails(t *testing.T) {
	sch, _ := testSchedule(t)
	// Capacity for ~6 mean-rate calls, load pushing well past it, no
	// admission control: renegotiation failures must appear.
	capacity := 6 * sch.MeanRate()
	lam := OfferedLoad(1.5, capacity, sch.MeanRate(), sch.DurationSec())
	cfg := baseConfig(sch, capacity, lam)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("overloaded link produced no renegotiation failures")
	}
	if res.FailureProb <= 0 {
		t.Fatalf("failure prob = %v", res.FailureProb)
	}
	if res.Utilization <= 0.3 {
		t.Fatalf("utilization = %v under overload", res.Utilization)
	}
	if res.Blocked == 0 {
		t.Fatal("hard capacity check never blocked under overload")
	}
}

func TestReservationNeverExceedsCapacity(t *testing.T) {
	sch, _ := testSchedule(t)
	capacity := 4 * sch.MeanRate()
	lam := OfferedLoad(2.0, capacity, sch.MeanRate(), sch.DurationSec())
	cfg := baseConfig(sch, capacity, lam)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Utilization is reserved/capacity; with the settle-for-remaining rule
	// it may reach but never exceed 1.
	if res.Utilization > 1+1e-9 {
		t.Fatalf("utilization %v exceeds 1", res.Utilization)
	}
}

func TestPerfectControllerMeetsTarget(t *testing.T) {
	sch, _ := testSchedule(t)
	capacity := 10 * sch.MeanRate()
	levels := stats.UniformLevels(48e3, 3e6, 12)
	desc := sch.Descriptor(levels)
	dist := ld.Dist{P: desc.Probabilities(), X: desc.Levels()}
	ctrl, err := admission.NewPerfectKnowledge(dist, capacity, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	lam := OfferedLoad(1.2, capacity, sch.MeanRate(), sch.DurationSec())
	cfg := baseConfig(sch, capacity, lam)
	cfg.Controller = ctrl
	cfg.MaxBatches = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The Chernoff-sized system should hold failures near or below target
	// (generous margin: the Chernoff estimate is approximate at small N).
	if res.FailureProb > 50e-3 {
		t.Fatalf("perfect-knowledge failure prob = %v", res.FailureProb)
	}
	if res.Blocked == 0 {
		t.Fatal("controller never blocked despite overload")
	}
}

func TestMemorylessOveradmitsOnSmallLink(t *testing.T) {
	// The paper's Fig. 7 headline: on a small link the memoryless scheme
	// admits too many calls and misses the failure target, while perfect
	// knowledge holds it.
	sch, _ := testSchedule(t)
	capacity := 8 * sch.MeanRate()
	levels := stats.UniformLevels(48e3, 3e6, 12)
	desc := sch.Descriptor(levels)
	dist := ld.Dist{P: desc.Probabilities(), X: desc.Levels()}
	target := 1e-3
	lam := OfferedLoad(1.5, capacity, sch.MeanRate(), sch.DurationSec())

	run := func(ctrl admission.Controller) Result {
		cfg := baseConfig(sch, capacity, lam)
		cfg.Controller = ctrl
		cfg.MaxBatches = 30
		cfg.Seed = 17
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	perfect, err := admission.NewPerfectKnowledge(dist, capacity, target)
	if err != nil {
		t.Fatal(err)
	}
	memoryless, err := admission.NewMemoryless(levels, capacity, target)
	if err != nil {
		t.Fatal(err)
	}
	pRes := run(perfect)
	mRes := run(memoryless)
	if mRes.FailureProb <= pRes.FailureProb {
		t.Fatalf("memoryless failure %v should exceed perfect %v",
			mRes.FailureProb, pRes.FailureProb)
	}
	if mRes.Utilization <= pRes.Utilization {
		t.Fatalf("memoryless utilization %v should exceed perfect %v (over-admission)",
			mRes.Utilization, pRes.Utilization)
	}
}

func TestDeterminism(t *testing.T) {
	sch, _ := testSchedule(t)
	cfg := baseConfig(sch, 8*sch.MeanRate(), 0.05)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FailureProb != b.FailureProb || a.Utilization != b.Utilization ||
		a.Attempts != b.Attempts {
		t.Fatalf("nondeterministic results: %+v vs %+v", a, b)
	}
}

func TestOfferedLoad(t *testing.T) {
	// load 1.0 on a 10-call link with 100 s calls: lambda = 0.1 calls/s.
	lam := OfferedLoad(1.0, 10*374e3, 374e3, 100)
	if math.Abs(lam-0.1) > 1e-12 {
		t.Fatalf("lambda = %v, want 0.1", lam)
	}
	nan := math.NaN()
	for _, args := range [][4]float64{{0, 1, 1, 1}, {nan, 1, 1, 1}, {1, nan, 1, 1}, {1, 1, nan, 1}, {1, 1, 1, nan}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("OfferedLoad%v accepted", args)
				}
			}()
			OfferedLoad(args[0], args[1], args[2], args[3])
		}()
	}
}

func TestInteractivityJumps(t *testing.T) {
	sch, _ := testSchedule(t)
	cfg := baseConfig(sch, 1e12, 0.1)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.JumpRate = 0.1 // a seek every ~10 s per call
	jump, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seeks add renegotiations.
	if jump.Attempts <= base.Attempts {
		t.Fatalf("jumping calls attempted %d <= baseline %d",
			jump.Attempts, base.Attempts)
	}
	// On an infinite link nothing fails and utilization stays near the
	// baseline (the stationary marginal is jump-invariant).
	if jump.Failures != 0 {
		t.Fatalf("failures on infinite link: %d", jump.Failures)
	}
	// The jump and baseline runs consume the RNG differently, so they see
	// different arrival patterns; compare per-call utilization loosely.
	ratio := (jump.Utilization / jump.MeanCalls) / (base.Utilization / base.MeanCalls)
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("per-call utilization ratio %v, want ~1 (marginal preserved)", ratio)
	}
}

func TestInteractivityValidation(t *testing.T) {
	sch, _ := testSchedule(t)
	cfg := baseConfig(sch, 1e9, 0.1)
	cfg.JumpRate = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative jump rate accepted")
	}
}

func TestHeterogeneousCallMix(t *testing.T) {
	// Two different movies (different seeds, different lengths) on one
	// link; the memory-based MBAC pools histories across the mix.
	trA := trace.SyntheticStarWarsFrames(45, 2400)
	trB := trace.SyntheticStarWarsFrames(46, 1200)
	mk := func(tr *trace.Trace) *core.Schedule {
		sch, _, err := trellis.Optimize(tr, trellis.Options{
			Levels:         stats.UniformLevels(48e3, 5e6, 12),
			BufferBits:     300e3,
			BufferGridBits: 300e3 / 2048,
			Cost:           core.CostModel{Alpha: 3e5, Beta: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sch
	}
	schA, schB := mk(trA), mk(trB)
	levels := stats.UniformLevels(48e3, 5e6, 12)
	capacity := 10 * schA.MeanRate()
	ctrl, err := admission.NewMemory(levels, capacity, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Schedules:     []*core.Schedule{schA, schB},
		Capacity:      capacity,
		ArrivalRate:   0.1,
		Controller:    ctrl,
		TargetFailure: 1e-3,
		MinBatches:    3,
		MaxBatches:    10,
		CIFrac:        0.3,
		Seed:          7,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals == 0 || res.Attempts == 0 {
		t.Fatalf("no activity: %+v", res)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %v", res.Utilization)
	}
	// Invalid schedules in the mix are rejected at Validate.
	cfg.Schedules = []*core.Schedule{schA, {}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid mix accepted")
	}
}

func TestEarlyStopBelowTarget(t *testing.T) {
	sch, _ := testSchedule(t)
	// Light load on a big link: failures are zero, so the failure samples
	// are all zero and the early-stop path cannot trigger via UpperBelow
	// (zero mean); the run must still terminate by utilization convergence
	// or MaxBatches.
	cfg := baseConfig(sch, 100*sch.MeanRate(), 0.05)
	cfg.MaxBatches = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches == 0 || res.Batches > 8 {
		t.Fatalf("batches = %d", res.Batches)
	}
}

// pinnedRows builds the configurations TestResultsPinnedPerSeed replays: every
// controller, interactivity jumps on and off, and a heterogeneous mix, each
// over two seeds. Controllers are stateful, so each row builds its own.
func pinnedRows(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	sch, _ := testSchedule(t)
	mix := []*core.Schedule{sch, mixSchedule(t)}
	levels := stats.UniformLevels(48e3, 5e6, 12)
	capacity := 8 * sch.MeanRate()
	lam := OfferedLoad(1.3, capacity, sch.MeanRate(), sch.DurationSec())
	ctrl := func(name string) admission.Controller {
		var c admission.Controller
		var err error
		switch name {
		case "unlimited":
			c = admission.Unlimited{}
		case "memoryless":
			c, err = admission.NewMemoryless(levels, capacity, 1e-3)
		case "perfect":
			desc := sch.Descriptor(levels)
			c, err = admission.NewPerfectKnowledge(ld.Dist{P: desc.Probabilities(), X: desc.Levels()}, capacity, 1e-3)
		case "memory":
			c, err = admission.NewMemory(levels, capacity, 1e-3)
		}
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	type row = struct {
		name string
		cfg  Config
	}
	var rows []row
	for _, seed := range []uint64{3, 29} {
		for _, name := range []string{"unlimited", "memoryless", "perfect", "memory"} {
			for _, jump := range []float64{0, 0.05} {
				for _, mixed := range []bool{false, true} {
					cfg := baseConfig(sch, capacity, lam)
					cfg.Controller = ctrl(name)
					cfg.JumpRate = jump
					cfg.MaxBatches = 6
					cfg.Seed = seed
					if mixed {
						cfg.Schedule, cfg.Schedules = nil, mix
					}
					rows = append(rows, row{fmt.Sprintf("%s/jump=%g/mix=%v/seed=%d", name, jump, mixed, seed), cfg})
				}
			}
		}
	}
	return rows
}

// mixSchedule is a second, shorter movie for the heterogeneous-mix rows.
func mixSchedule(t *testing.T) *core.Schedule {
	t.Helper()
	sch, _, err := trellis.Optimize(trace.SyntheticStarWarsFrames(46, 1200), trellis.Options{
		Levels:         stats.UniformLevels(48e3, 5e6, 12),
		BufferBits:     300e3,
		BufferGridBits: 300e3 / 2048,
		Cost:           core.CostModel{Alpha: 3e5, Beta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// TestResultsPinnedPerSeed replays pinnedRows and compares every Result
// field exactly, floats included, so any change to the order of events or
// of random draws shows here.
func TestResultsPinnedPerSeed(t *testing.T) {
	want := map[string]Result{
		"unlimited/jump=0/mix=false/seed=3":      Result{FailureProb: 0.20600889907725545, FailureCI: 0.04584936394352698, Utilization: 0.7297204751573694, UtilizationCI: 0.0873188713144765, BlockingProb: 0.30952380952380953, Batches: 4, Attempts: 527, Failures: 111, UpAttempts: 270, Arrivals: 42, Blocked: 13, ConfidentBelowTarget: false, MeanCalls: 7.37180497868424},
		"unlimited/jump=0/mix=true/seed=3":       Result{FailureProb: 0.13779941231269116, FailureCI: 0.05741114096434964, Utilization: 0.593260439044051, UtilizationCI: 0.12440308578443122, BlockingProb: 0.1509433962264151, Batches: 6, Attempts: 833, Failures: 131, UpAttempts: 419, Arrivals: 53, Blocked: 8, ConfidentBelowTarget: false, MeanCalls: 5.82849615224159},
		"unlimited/jump=0.05/mix=false/seed=3":   Result{FailureProb: 0.18224160912012738, FailureCI: 0.057139346332888974, Utilization: 0.6862654263397323, UtilizationCI: 0.07085690344139482, BlockingProb: 0.2542372881355932, Batches: 6, Attempts: 1011, Failures: 191, UpAttempts: 482, Arrivals: 59, Blocked: 15, ConfidentBelowTarget: false, MeanCalls: 7.037756166908851},
		"unlimited/jump=0.05/mix=true/seed=3":    Result{FailureProb: 0.13072321197938522, FailureCI: 0.034380344625663424, Utilization: 0.6334553371359184, UtilizationCI: 0.041240173852400266, BlockingProb: 0.18867924528301888, Batches: 6, Attempts: 999, Failures: 133, UpAttempts: 475, Arrivals: 53, Blocked: 10, ConfidentBelowTarget: false, MeanCalls: 5.668560932787454},
		"memoryless/jump=0/mix=false/seed=3":     Result{FailureProb: 0.0768025454984947, FailureCI: 0.0245316065561615, Utilization: 0.552972597083919, UtilizationCI: 0.04547694656099852, BlockingProb: 0.532258064516129, Batches: 6, Attempts: 522, Failures: 41, UpAttempts: 247, Arrivals: 62, Blocked: 33, ConfidentBelowTarget: false, MeanCalls: 4.847379145997183},
		"memoryless/jump=0/mix=true/seed=3":      Result{FailureProb: 0.07072861695743052, FailureCI: 0.043761170130413016, Utilization: 0.4857420135916827, UtilizationCI: 0.07699543674706376, BlockingProb: 0.37735849056603776, Batches: 6, Attempts: 583, Failures: 43, UpAttempts: 288, Arrivals: 53, Blocked: 20, ConfidentBelowTarget: false, MeanCalls: 4.269018629346693},
		"memoryless/jump=0.05/mix=false/seed=3":  Result{FailureProb: 0.06380028464069212, FailureCI: 0.031216459662777918, Utilization: 0.5051006827386261, UtilizationCI: 0.0484583551863422, BlockingProb: 0.4528301886792453, Batches: 6, Attempts: 640, Failures: 44, UpAttempts: 279, Arrivals: 53, Blocked: 24, ConfidentBelowTarget: false, MeanCalls: 4.573312620546871},
		"memoryless/jump=0.05/mix=true/seed=3":   Result{FailureProb: 0.05002282627843957, FailureCI: 0.04419145764472858, Utilization: 0.4739941942218807, UtilizationCI: 0.07872403641055634, BlockingProb: 0.45161290322580644, Batches: 6, Attempts: 743, Failures: 38, UpAttempts: 339, Arrivals: 62, Blocked: 28, ConfidentBelowTarget: false, MeanCalls: 4.244965507496431},
		"perfect/jump=0/mix=false/seed=3":        Result{FailureProb: 0, FailureCI: 0, Utilization: 0.12217760674770434, UtilizationCI: 0.0032441324697505083, BlockingProb: 0.9047619047619048, Batches: 4, Attempts: 70, Failures: 0, UpAttempts: 31, Arrivals: 42, Blocked: 38, ConfidentBelowTarget: true, MeanCalls: 0.9619733843512659},
		"perfect/jump=0/mix=true/seed=3":         Result{FailureProb: 0, FailureCI: 0, Utilization: 0.12115990312308281, UtilizationCI: 0.033714524349260935, BlockingProb: 0.8918918918918919, Batches: 4, Attempts: 81, Failures: 0, UpAttempts: 37, Arrivals: 37, Blocked: 33, ConfidentBelowTarget: true, MeanCalls: 0.9357594424189489},
		"perfect/jump=0.05/mix=false/seed=3":     Result{FailureProb: 0, FailureCI: 0, Utilization: 0.09038386659743637, UtilizationCI: 0.023231381410384885, BlockingProb: 0.8837209302325582, Batches: 5, Attempts: 100, Failures: 0, UpAttempts: 44, Arrivals: 43, Blocked: 38, ConfidentBelowTarget: true, MeanCalls: 0.9039759556390763},
		"perfect/jump=0.05/mix=true/seed=3":      Result{FailureProb: 0, FailureCI: 0, Utilization: 0.10324425079662528, UtilizationCI: 0.025245314352445432, BlockingProb: 0.875, Batches: 4, Attempts: 106, Failures: 0, UpAttempts: 47, Arrivals: 40, Blocked: 35, ConfidentBelowTarget: true, MeanCalls: 0.8867697933359182},
		"memory/jump=0/mix=false/seed=3":         Result{FailureProb: 0.09465811965811965, FailureCI: 0.06280427432391188, Utilization: 0.3930465652147807, UtilizationCI: 0.10839534814238562, BlockingProb: 0.6451612903225806, Batches: 6, Attempts: 366, Failures: 42, UpAttempts: 175, Arrivals: 62, Blocked: 40, ConfidentBelowTarget: false, MeanCalls: 3.432566541399207},
		"memory/jump=0/mix=true/seed=3":          Result{FailureProb: 0.02484126984126984, FailureCI: 0.038156096872397835, Utilization: 0.2393459954507468, UtilizationCI: 0.10299600658410879, BlockingProb: 0.660377358490566, Batches: 6, Attempts: 306, Failures: 13, UpAttempts: 149, Arrivals: 53, Blocked: 35, ConfidentBelowTarget: false, MeanCalls: 2.0872415683970593},
		"memory/jump=0.05/mix=false/seed=3":      Result{FailureProb: 0.02415204678362573, FailureCI: 0.042326251536080724, Utilization: 0.2794313693640089, UtilizationCI: 0.06433844802854956, BlockingProb: 0.7432432432432432, Batches: 6, Attempts: 342, Failures: 11, UpAttempts: 143, Arrivals: 74, Blocked: 55, ConfidentBelowTarget: false, MeanCalls: 2.395136967808847},
		"memory/jump=0.05/mix=true/seed=3":       Result{FailureProb: 0.01792114695340502, FailureCI: 0.03512480259032356, Utilization: 0.237169218399645, UtilizationCI: 0.09433097417175255, BlockingProb: 0.7301587301587301, Batches: 6, Attempts: 354, Failures: 10, UpAttempts: 158, Arrivals: 63, Blocked: 46, ConfidentBelowTarget: false, MeanCalls: 2.087120177131249},
		"unlimited/jump=0/mix=false/seed=29":     Result{FailureProb: 0.1891413988581573, FailureCI: 0.04958991148487563, Utilization: 0.7633345367844371, UtilizationCI: 0.050982218956643996, BlockingProb: 0.2682926829268293, Batches: 4, Attempts: 541, Failures: 105, UpAttempts: 277, Arrivals: 41, Blocked: 11, ConfidentBelowTarget: false, MeanCalls: 7.58568656006799},
		"unlimited/jump=0/mix=true/seed=29":      Result{FailureProb: 0.14236623148121855, FailureCI: 0.04571805512170314, Utilization: 0.614820723218314, UtilizationCI: 0.052883191682848954, BlockingProb: 0.21052631578947367, Batches: 6, Attempts: 859, Failures: 124, UpAttempts: 439, Arrivals: 57, Blocked: 12, ConfidentBelowTarget: false, MeanCalls: 6.054193952990355},
		"unlimited/jump=0.05/mix=false/seed=29":  Result{FailureProb: 0.12615238064060513, FailureCI: 0.01284072611780525, Utilization: 0.5746753375317055, UtilizationCI: 0.08238944826537278, BlockingProb: 0.24242424242424243, Batches: 4, Attempts: 482, Failures: 60, UpAttempts: 224, Arrivals: 33, Blocked: 8, ConfidentBelowTarget: false, MeanCalls: 5.427795309883302},
		"unlimited/jump=0.05/mix=true/seed=29":   Result{FailureProb: 0.14064732564818486, FailureCI: 0.04837797150559402, Utilization: 0.6315178611091126, UtilizationCI: 0.040135125373667466, BlockingProb: 0.22807017543859648, Batches: 6, Attempts: 974, Failures: 145, UpAttempts: 470, Arrivals: 57, Blocked: 13, ConfidentBelowTarget: false, MeanCalls: 5.868050793012443},
		"memoryless/jump=0/mix=false/seed=29":    Result{FailureProb: 0.076594329041174, FailureCI: 0.03882062149689977, Utilization: 0.5449969373668061, UtilizationCI: 0.0518236242398194, BlockingProb: 0.5714285714285714, Batches: 6, Attempts: 508, Failures: 40, UpAttempts: 240, Arrivals: 70, Blocked: 40, ConfidentBelowTarget: false, MeanCalls: 4.733733697649282},
		"memoryless/jump=0/mix=true/seed=29":     Result{FailureProb: 0.04849303790326864, FailureCI: 0.030405054385894168, Utilization: 0.44918399644587614, UtilizationCI: 0.07290097199370169, BlockingProb: 0.47368421052631576, Batches: 6, Attempts: 560, Failures: 28, UpAttempts: 276, Arrivals: 57, Blocked: 27, ConfidentBelowTarget: false, MeanCalls: 3.9037052831836907},
		"memoryless/jump=0.05/mix=false/seed=29": Result{FailureProb: 0.05828843618158774, FailureCI: 0.03853291681860054, Utilization: 0.538183246001131, UtilizationCI: 0.04418328522936617, BlockingProb: 0.5303030303030303, Batches: 6, Attempts: 652, Failures: 36, UpAttempts: 282, Arrivals: 66, Blocked: 35, ConfidentBelowTarget: false, MeanCalls: 4.889472406630519},
		"memoryless/jump=0.05/mix=true/seed=29":  Result{FailureProb: 0.01714316139854339, FailureCI: 0.011659460596425385, Utilization: 0.4613648628148423, UtilizationCI: 0.05978161153807836, BlockingProb: 0.38181818181818183, Batches: 6, Attempts: 702, Failures: 14, UpAttempts: 312, Arrivals: 55, Blocked: 21, ConfidentBelowTarget: false, MeanCalls: 4.20586761626821},
		"perfect/jump=0/mix=false/seed=29":       Result{FailureProb: 0, FailureCI: 0, Utilization: 0.11795107353154087, UtilizationCI: 0.005606423778821648, BlockingProb: 0.9024390243902439, Batches: 4, Attempts: 65, Failures: 0, UpAttempts: 28, Arrivals: 41, Blocked: 37, ConfidentBelowTarget: true, MeanCalls: 0.94395683328586},
		"perfect/jump=0/mix=true/seed=29":        Result{FailureProb: 0, FailureCI: 0, Utilization: 0.11634175467651464, UtilizationCI: 0.007271081084992568, BlockingProb: 0.8604651162790697, Batches: 4, Attempts: 97, Failures: 0, UpAttempts: 47, Arrivals: 43, Blocked: 37, ConfidentBelowTarget: true, MeanCalls: 0.9465171092549006},
		"perfect/jump=0.05/mix=false/seed=29":    Result{FailureProb: 0, FailureCI: 0, Utilization: 0.10967715011351852, UtilizationCI: 0.03229621571016598, BlockingProb: 0.8823529411764706, Batches: 6, Attempts: 131, Failures: 0, UpAttempts: 55, Arrivals: 51, Blocked: 45, ConfidentBelowTarget: true, MeanCalls: 0.902964682342567},
		"perfect/jump=0.05/mix=true/seed=29":     Result{FailureProb: 0, FailureCI: 0, Utilization: 0.08623392729467343, UtilizationCI: 0.019490516890977198, BlockingProb: 0.8611111111111112, Batches: 4, Attempts: 103, Failures: 0, UpAttempts: 47, Arrivals: 36, Blocked: 31, ConfidentBelowTarget: true, MeanCalls: 0.9066844956254762},
		"memory/jump=0/mix=false/seed=29":        Result{FailureProb: 0.022632890365448504, FailureCI: 0.030070778860346724, Utilization: 0.2711072492923167, UtilizationCI: 0.05903909222341777, BlockingProb: 0.8, Batches: 6, Attempts: 243, Failures: 7, UpAttempts: 112, Arrivals: 70, Blocked: 56, ConfidentBelowTarget: false, MeanCalls: 2.292837594976091},
		"memory/jump=0/mix=true/seed=29":         Result{FailureProb: 0, FailureCI: 0, Utilization: 0.22571747861092337, UtilizationCI: 0.053493470425035404, BlockingProb: 0.78, Batches: 5, Attempts: 200, Failures: 0, UpAttempts: 94, Arrivals: 50, Blocked: 39, ConfidentBelowTarget: true, MeanCalls: 1.8253475965003811},
		"memory/jump=0.05/mix=false/seed=29":     Result{FailureProb: 0.046648987463838, FailureCI: 0.04744348547183408, Utilization: 0.24468662246068235, UtilizationCI: 0.0651005887461969, BlockingProb: 0.78125, Batches: 6, Attempts: 294, Failures: 16, UpAttempts: 132, Arrivals: 64, Blocked: 50, ConfidentBelowTarget: false, MeanCalls: 2.169442386145534},
		"memory/jump=0.05/mix=true/seed=29":      Result{FailureProb: 0.02605876237796392, FailureCI: 0.02381469676990385, Utilization: 0.27846607403611134, UtilizationCI: 0.09346804138723912, BlockingProb: 0.6206896551724138, Batches: 6, Attempts: 444, Failures: 16, UpAttempts: 204, Arrivals: 58, Blocked: 36, ConfidentBelowTarget: false, MeanCalls: 2.4899580072285254},
	}
	rows := pinnedRows(t)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, %d pinned results", len(rows), len(want))
	}
	for _, r := range rows {
		got, err := Run(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[r.name] {
			t.Errorf("%s:\n got %+v\nwant %+v", r.name, got, want[r.name])
		}
	}
}

// TestEventHandlingAllocatesNothing pins the runner's per-event cost: a
// renegotiation, a jump and a departure move values through the queue and
// the call's own event buffer. Only an arrival allocates: the call's record
// and its event list.
func TestEventHandlingAllocatesNothing(t *testing.T) {
	sch, _ := testSchedule(t)
	cfg := baseConfig(sch, 1e12, 1)
	cfg.JumpRate = 1
	cfg.Schedules = cfg.templates()
	r := &runner{cfg: cfg, rng: stats.NewRNG(1)}
	drain := func() {
		for r.q.Len() > 0 {
			r.q.Pop()
		}
	}
	r.arrive()
	c := r.q.Pop().c
	drain()
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"renegotiation", func() {
			c.next, c.base = 1, r.q.Now()
			r.handle(event{c: c, gen: c.gen, kind: evReneg})
			drain()
		}},
		{"jump", func() { r.handle(event{c: c, gen: c.gen, kind: evJump}); drain() }},
		{"departure", func() { r.handle(event{c: c, kind: evDepart}) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got != 0 {
			t.Errorf("%s: %v allocations per event", tc.name, got)
		}
	}
}
