package trace

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rcbr/internal/stats"
)

func mustTrace(bits []int64, fps float64) *Trace { return New(bits, fps) }

func TestBasicStats(t *testing.T) {
	tr := mustTrace([]int64{100, 200, 300, 400}, 2) // 2 fps, 2 s
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.TotalBits() != 1000 {
		t.Fatalf("TotalBits = %d", tr.TotalBits())
	}
	if d := tr.Duration(); d != 2 {
		t.Fatalf("Duration = %v", d)
	}
	if m := tr.MeanRate(); m != 500 {
		t.Fatalf("MeanRate = %v", m)
	}
	if p := tr.PeakFrameRate(); p != 800 {
		t.Fatalf("PeakFrameRate = %v", p)
	}
	if r := tr.Rate(2); r != 600 {
		t.Fatalf("Rate(2) = %v", r)
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := mustTrace(nil, 24)
	if tr.MeanRate() != 0 || tr.PeakFrameRate() != 0 {
		t.Fatal("empty trace stats must be zero")
	}
	if _, err := tr.Summarize(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Summarize error = %v, want ErrEmpty", err)
	}
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative frame": func() { New([]int64{-1}, 24) },
		"zero fps":       func() { New([]int64{1}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMaxWindowBits(t *testing.T) {
	tr := mustTrace([]int64{5, 1, 9, 2, 8}, 1)
	if m := tr.MaxWindowBits(1); m != 9 {
		t.Fatalf("MaxWindowBits(1) = %d", m)
	}
	if m := tr.MaxWindowBits(2); m != 11 {
		t.Fatalf("MaxWindowBits(2) = %d, want 11", m)
	}
	if m := tr.MaxWindowBits(5); m != 25 {
		t.Fatalf("MaxWindowBits(5) = %d, want 25", m)
	}
	if m := tr.MaxWindowBits(100); m != 25 {
		t.Fatalf("MaxWindowBits(100) = %d, want 25 (clamped)", m)
	}
	if m := tr.MaxWindowBits(0); m != 0 {
		t.Fatalf("MaxWindowBits(0) = %d, want 0", m)
	}
}

func TestSlice(t *testing.T) {
	tr := mustTrace([]int64{1, 2, 3, 4}, 24)
	s := tr.Slice(1, 3)
	if s.Len() != 2 || s.FrameBits[0] != 2 || s.FrameBits[1] != 3 {
		t.Fatalf("Slice = %v", s.FrameBits)
	}
	s.FrameBits[0] = 99
	if tr.FrameBits[1] != 2 {
		t.Fatal("Slice must copy")
	}
}

func TestSustainedPeaks(t *testing.T) {
	// 10 frames at rate 1, then 20 at rate 10, then 10 at rate 1 (fps=1).
	bits := make([]int64, 40)
	for i := range bits {
		if i >= 10 && i < 30 {
			bits[i] = 10
		} else {
			bits[i] = 1
		}
	}
	tr := mustTrace(bits, 1)
	peaks := tr.SustainedPeaks(9, 1)
	if len(peaks) != 1 {
		t.Fatalf("peaks = %+v, want one episode", peaks)
	}
	p := peaks[0]
	if p.Start != 10 || p.Frames != 20 {
		t.Fatalf("episode = %+v, want start 10 len 20", p)
	}
	if p.MeanRate != 10 {
		t.Fatalf("episode mean = %v, want 10", p.MeanRate)
	}
	if s := p.Seconds(1); s != 20 {
		t.Fatalf("Seconds = %v", s)
	}
}

func TestSustainedPeaksAtEnd(t *testing.T) {
	bits := []int64{1, 1, 10, 10, 10}
	tr := mustTrace(bits, 1)
	peaks := tr.SustainedPeaks(9, 1)
	if len(peaks) != 1 || peaks[0].Frames != 3 {
		t.Fatalf("peaks = %+v, want one 3-frame episode at the end", peaks)
	}
}

func TestLongestSustainedPeakNone(t *testing.T) {
	tr := mustTrace([]int64{1, 1, 1}, 1)
	if p := tr.LongestSustainedPeak(100, 1); p.Frames != 0 {
		t.Fatalf("got %+v, want zero episode", p)
	}
}

func TestSummaryString(t *testing.T) {
	tr := SyntheticStarWarsFrames(1, 2400)
	s, err := tr.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
	if s.Frames != 2400 || s.FPS != 24 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSyntheticCalibration(t *testing.T) {
	// Full-length synthetic trace must reproduce the paper's headline
	// statistics: mean 374 kb/s, sustained >10 s peaks near 5x the mean.
	tr := SyntheticStarWarsFrames(7, DefaultStarWarsConfig().Frames)
	if tr.Len() != 172800 {
		t.Fatalf("Len = %d", tr.Len())
	}
	mean := tr.MeanRate()
	if math.Abs(mean-374e3)/374e3 > 0.005 {
		t.Fatalf("mean rate = %v, want ~374000", mean)
	}
	// Sustained peak: smoothed over 1 s, above 4x mean, lasting >= 10 s.
	p := tr.LongestSustainedPeak(4*mean, 24)
	if sec := p.Seconds(24); sec < 10 {
		t.Fatalf("longest sustained 4x peak = %.1fs, want >= 10s", sec)
	}
	// Peak scene rate should approach ~5x mean.
	if p.MeanRate < 4.2*mean {
		t.Fatalf("sustained peak mean %v too low vs mean %v", p.MeanRate, mean)
	}
	// Per-frame peak-to-mean well above the scene multiplier (I frames).
	sum, err := tr.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.PeakToMean < 6 {
		t.Fatalf("per-frame peak/mean = %v, want > 6 (GOP burstiness)", sum.PeakToMean)
	}
	// The paper sizes the 300 kb buffer as "slightly more than the maximum
	// size of three consecutive frames": the max 3-frame burst must be of
	// that order.
	if sum.Max3Frames < 150e3 || sum.Max3Frames > 450e3 {
		t.Fatalf("max 3-frame burst %d bits, want within [150kb, 450kb]", sum.Max3Frames)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := SyntheticStarWarsFrames(3, 1000)
	b := SyntheticStarWarsFrames(3, 1000)
	for i := range a.FrameBits {
		if a.FrameBits[i] != b.FrameBits[i] {
			t.Fatalf("traces diverge at frame %d", i)
		}
	}
	c := SyntheticStarWarsFrames(4, 1000)
	same := 0
	for i := range a.FrameBits {
		if a.FrameBits[i] == c.FrameBits[i] {
			same++
		}
	}
	if same == len(a.FrameBits) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Frames = 0 },
		func(c *Config) { c.FPS = 0 },
		func(c *Config) { c.MeanRate = -1 },
		func(c *Config) { c.GOP = "" },
		func(c *Config) { c.GOP = "IXB" },
		func(c *Config) { c.IWeight = 0 },
		func(c *Config) { c.Classes = nil },
		func(c *Config) { c.Classes[0].Multiplier = 0 },
		func(c *Config) { c.ARCoeff = 1.0 },
		func(c *Config) { c.ARSigma = -0.1 },
	}
	for i, mutate := range bad {
		cfg := DefaultStarWarsConfig()
		mutate(&cfg)
		if _, err := Synthesize(cfg, stats.NewRNG(1)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestNonFiniteRefused holds each of the three places a trace's rates come
// in — Config.Validate, ReadText's fps header and New — to refusing NaN and
// ±Inf, which the positivity and range comparisons alone let through. The
// Validate rows are one per parameter and value, and the error names the
// parameter.
func TestNonFiniteRefused(t *testing.T) {
	params := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"FPS", func(c *Config, v float64) { c.FPS = v }},
		{"MeanRate", func(c *Config, v float64) { c.MeanRate = v }},
		{"IWeight", func(c *Config, v float64) { c.IWeight = v }},
		{"PWeight", func(c *Config, v float64) { c.PWeight = v }},
		{"BWeight", func(c *Config, v float64) { c.BWeight = v }},
		{"ARCoeff", func(c *Config, v float64) { c.ARCoeff = v }},
		{"ARSigma", func(c *Config, v float64) { c.ARSigma = v }},
		{"Multiplier", func(c *Config, v float64) { c.Classes[2].Multiplier = v }},
		{"MeanDurSec", func(c *Config, v float64) { c.Classes[2].MeanDurSec = v }},
		{"Weight", func(c *Config, v float64) { c.Classes[2].Weight = v }},
		{"GOPFactor", func(c *Config, v float64) { c.Classes[2].GOPFactor = v }},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, p := range params {
			cfg := DefaultStarWarsConfig()
			p.set(&cfg, v)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), p.name) {
				t.Errorf("%s = %g: Validate error %v, want one naming %s", p.name, v, err, p.name)
			}
		}
		header := fmt.Sprintf("# fps %g\n100\n", v)
		if tr, err := ReadText(strings.NewReader(header)); err == nil {
			t.Errorf("ReadText %q: accepted, fps %g", header, tr.FPS)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with fps %g: no panic", v)
				}
			}()
			New([]int64{100}, v)
		}()
	}
}

func TestSynthesizeMeanMatchesTarget(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultStarWarsConfig()
		cfg.Frames = 24000
		tr, err := Synthesize(cfg, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		return math.Abs(tr.MeanRate()-cfg.MeanRate)/cfg.MeanRate < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestParseGOP(t *testing.T) {
	if g, err := ParseGOP(" ibbp "); err != nil || g != "IBBP" {
		t.Fatalf("ParseGOP = %q, %v", g, err)
	}
	if _, err := ParseGOP("IXP"); err == nil {
		t.Fatal("bad GOP accepted")
	}
	if _, err := ParseGOP(""); err == nil {
		t.Fatal("empty GOP accepted")
	}
}

func TestSingleClassSynthesis(t *testing.T) {
	cfg := DefaultStarWarsConfig()
	cfg.Frames = 1200
	cfg.Classes = []SceneClass{{Name: "only", Multiplier: 1, MeanDurSec: 5, Weight: 1}}
	tr, err := Synthesize(cfg, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.MeanRate()-cfg.MeanRate)/cfg.MeanRate > 0.01 {
		t.Fatalf("single-class mean = %v", tr.MeanRate())
	}
}
