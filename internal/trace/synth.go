package trace

import (
	"fmt"
	"math"
	"strings"

	"rcbr/internal/stats"
)

// SceneClass describes one slow time-scale state of the synthetic source: a
// scene type with a rate multiplier relative to the long-term mean, a mean
// dwell time, and a relative weight used when choosing the next scene.
// Classes are the "fast time-scale subchains" of the paper's Fig. 4 model;
// transitions between them are the rare slow time-scale events.
type SceneClass struct {
	Name       string
	Multiplier float64 // scene mean rate as a multiple of the long-term mean
	MeanDurSec float64 // mean scene duration in seconds (geometric dwell)
	Weight     float64 // relative probability of entering this class
	// GOPFactor in (0, 1] shrinks the I/P/B size differential within this
	// class: 1 keeps the configured weights, smaller values flatten them.
	// Real coders show a compressed differential in information-rich scenes
	// because every frame is hard to code. Zero means 1 (full differential).
	GOPFactor float64
}

// Config parameterizes the synthetic MPEG generator.
type Config struct {
	Frames   int     // number of frames to generate
	FPS      float64 // frame rate (frames/second)
	MeanRate float64 // target long-term average rate in bits/second

	// GOP is the group-of-pictures pattern, e.g. "IBBPBBPBBPBB". Each
	// letter selects the per-frame weight below; the pattern repeats.
	GOP string
	// IWeight, PWeight and BWeight are relative frame sizes by type. They
	// are normalized internally so the pattern's average weight is one.
	IWeight, PWeight, BWeight float64

	// Classes is the slow time-scale scene mix. Multipliers are interpreted
	// relative to the long-term mean before final rescaling.
	Classes []SceneClass

	// ARCoeff and ARSigma control the within-scene AR(1) multiplicative
	// noise modelling residual fast time-scale variation beyond the GOP
	// structure.
	ARCoeff, ARSigma float64
}

// DefaultStarWarsConfig returns a configuration calibrated to the published
// statistics of the MPEG-1 Star Wars trace used by the paper: two hours at
// 24 frames/s, long-term mean 374 kb/s, scenes lasting seconds to tens of
// seconds, and rare sustained peaks around five times the mean lasting more
// than ten seconds.
func DefaultStarWarsConfig() Config {
	return Config{
		Frames:   172800, // two hours at 24 fps
		FPS:      24,
		MeanRate: 374e3,
		GOP:      "IBBPBBPBBPBB",
		IWeight:  3.0,
		PWeight:  1.4,
		BWeight:  0.6,
		Classes: []SceneClass{
			{Name: "quiet", Multiplier: 0.40, MeanDurSec: 8, Weight: 0.42, GOPFactor: 1},
			{Name: "normal", Multiplier: 0.90, MeanDurSec: 12, Weight: 0.41, GOPFactor: 1},
			{Name: "active", Multiplier: 1.80, MeanDurSec: 6, Weight: 0.14, GOPFactor: 0.7},
			{Name: "peak", Multiplier: 5.50, MeanDurSec: 13, Weight: 0.03, GOPFactor: 0.35},
		},
		ARCoeff: 0.80,
		ARSigma: 0.10,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	if err := c.checkFinite(); err != nil {
		return err
	}
	switch {
	case c.Frames <= 0:
		return fmt.Errorf("trace: Frames must be positive, got %d", c.Frames)
	case c.FPS <= 0:
		return fmt.Errorf("trace: FPS must be positive, got %g", c.FPS)
	case c.MeanRate <= 0:
		return fmt.Errorf("trace: MeanRate must be positive, got %g", c.MeanRate)
	case len(c.GOP) == 0:
		return fmt.Errorf("trace: empty GOP pattern")
	case c.IWeight <= 0 || c.PWeight <= 0 || c.BWeight <= 0:
		return fmt.Errorf("trace: frame-type weights must be positive")
	case len(c.Classes) == 0:
		return fmt.Errorf("trace: no scene classes")
	case c.ARCoeff < 0 || c.ARCoeff >= 1:
		return fmt.Errorf("trace: ARCoeff must be in [0,1), got %g", c.ARCoeff)
	case c.ARSigma < 0:
		return fmt.Errorf("trace: ARSigma must be non-negative")
	}
	for _, ch := range c.GOP {
		if ch != 'I' && ch != 'P' && ch != 'B' {
			return fmt.Errorf("trace: GOP contains %q, want only I/P/B", ch)
		}
	}
	for i, cl := range c.Classes {
		if cl.Multiplier <= 0 || cl.MeanDurSec <= 0 || cl.Weight < 0 {
			return fmt.Errorf("trace: invalid scene class %d (%s)", i, cl.Name)
		}
		if cl.GOPFactor < 0 || cl.GOPFactor > 1 {
			return fmt.Errorf("trace: scene class %d (%s) GOPFactor %g outside (0,1]",
				i, cl.Name, cl.GOPFactor)
		}
	}
	return nil
}

// checkFinite refuses a NaN or infinite parameter: every comparison in
// Validate is false for NaN, so none of them would.
func (c Config) checkFinite() error {
	names := []string{"FPS", "MeanRate", "IWeight", "PWeight", "BWeight", "ARCoeff", "ARSigma"}
	vals := []float64{c.FPS, c.MeanRate, c.IWeight, c.PWeight, c.BWeight, c.ARCoeff, c.ARSigma}
	for _, cl := range c.Classes {
		names = append(names, cl.Name+" Multiplier", cl.Name+" MeanDurSec", cl.Name+" Weight", cl.Name+" GOPFactor")
		vals = append(vals, cl.Multiplier, cl.MeanDurSec, cl.Weight, cl.GOPFactor)
	}
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("trace: %s must be finite, got %g", names[i], v)
		}
	}
	return nil
}

// frameWeights expands the GOP pattern into per-slot weights normalized to
// average one over the pattern.
func (c Config) frameWeights() []float64 {
	w := make([]float64, len(c.GOP))
	var sum float64
	for i, ch := range c.GOP {
		switch ch {
		case 'I':
			w[i] = c.IWeight
		case 'P':
			w[i] = c.PWeight
		default:
			w[i] = c.BWeight
		}
		sum += w[i]
	}
	for i := range w {
		w[i] *= float64(len(w)) / sum
	}
	return w
}

// Synthesize generates a trace from cfg using rng. The resulting trace's
// long-term mean rate matches cfg.MeanRate to within rounding.
func Synthesize(cfg Config, rng *stats.RNG) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gop := cfg.frameWeights()
	weights := make([]float64, len(cfg.Classes))
	for i, cl := range cfg.Classes {
		weights[i] = cl.Weight
	}

	baseFrameBits := cfg.MeanRate / cfg.FPS // pre-scaling mean frame size

	raw := make([]float64, cfg.Frames)
	class := rng.Pick(weights)
	remaining := sceneFrames(cfg, rng, class)
	ar := 0.0
	for i := 0; i < cfg.Frames; i++ {
		if remaining == 0 {
			class = nextScene(cfg, rng, weights, class)
			remaining = sceneFrames(cfg, rng, class)
		}
		remaining--
		ar = cfg.ARCoeff*ar + rng.NormFloat64()*cfg.ARSigma
		noise := 1 + ar
		if noise < 0.05 {
			noise = 0.05
		}
		cl := cfg.Classes[class]
		gf := cl.GOPFactor
		if gf == 0 {
			gf = 1
		}
		gw := 1 + (gop[i%len(gop)]-1)*gf
		raw[i] = baseFrameBits * cl.Multiplier * gw * noise
	}

	// Rescale so the realized mean rate equals the target exactly (before
	// integer rounding); scene mixing makes the raw mean drift a few percent.
	var total float64
	for _, v := range raw {
		total += v
	}
	scale := cfg.MeanRate * float64(cfg.Frames) / cfg.FPS / total
	frames := make([]int64, cfg.Frames)
	for i, v := range raw {
		b := int64(math.Round(v * scale))
		if b < 1 {
			b = 1 // a coded frame is never empty
		}
		frames[i] = b
	}
	return New(frames, cfg.FPS), nil
}

// sceneFrames draws a geometric scene duration in frames with the class's
// mean, at least one GOP long so scene boundaries land on realistic cuts.
func sceneFrames(cfg Config, rng *stats.RNG, class int) int {
	meanFrames := cfg.Classes[class].MeanDurSec * cfg.FPS
	d := int(math.Round(rng.ExpFloat64(1 / meanFrames)))
	if min := len(cfg.GOP); d < min {
		d = min
	}
	return d
}

// nextScene picks the successor class by weight, excluding the current class
// so every boundary is a real scene change.
func nextScene(cfg Config, rng *stats.RNG, weights []float64, cur int) int {
	if len(weights) == 1 {
		return cur
	}
	w := append([]float64(nil), weights...)
	w[cur] = 0
	var sum float64
	for _, v := range w {
		sum += v
	}
	if sum == 0 {
		return cur
	}
	return rng.Pick(w)
}

// SyntheticStarWarsFrames generates the repository's stand-in for the
// paper's Star Wars trace, deterministically from seed, at the given length
// (DefaultStarWarsConfig().Frames is the full two hours).
func SyntheticStarWarsFrames(seed uint64, frames int) *Trace {
	cfg := DefaultStarWarsConfig()
	cfg.Frames = frames
	t, err := Synthesize(cfg, stats.NewRNG(seed))
	if err != nil {
		panic("trace: default config invalid: " + err.Error())
	}
	return t
}

// ParseGOP validates and normalizes a user-supplied GOP pattern string.
func ParseGOP(s string) (string, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	if s == "" {
		return "", fmt.Errorf("trace: empty GOP pattern")
	}
	for _, ch := range s {
		if ch != 'I' && ch != 'P' && ch != 'B' {
			return "", fmt.Errorf("trace: GOP contains %q, want only I/P/B", ch)
		}
	}
	return s, nil
}
