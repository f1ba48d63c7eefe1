package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"rcbr/internal/core"
	"rcbr/internal/experiments"
	"rcbr/internal/heuristic"
	"rcbr/internal/stats"
	"rcbr/internal/trace"
	"rcbr/internal/trellis"
)

// scheduleRun computes one renegotiation schedule for a trace: the optimal
// offline one (Section IV-A) or the causal online heuristic's (Section
// IV-B), then replays the trace through it.
func scheduleRun(fs *flag.FlagSet) func(context.Context) error {
	load := traceFlags(fs)
	mode := fs.String("mode", "offline", "offline (optimal) or online (AR1 heuristic)")
	buffer := fs.Float64("buffer", 300e3, "source buffer B (bits)")
	alpha := fs.Float64("alpha", 1e6, "offline: cost per renegotiation")
	beta := fs.Float64("beta", 1, "offline: cost per bit of allocation")
	levels := fs.Int("levels", 20, "offline: number of bandwidth levels")
	delay := fs.Int("delay", 0, "offline: delay bound in slots (0 = none)")
	drained := fs.Bool("drained", false, "offline: require the buffer drained at the end")
	delta := fs.Float64("delta", 64e3, "online: bandwidth granularity (bits/s)")
	gop := fs.Bool("gopaware", false, "online: use the GOP-aware predictor")
	dump := fs.Bool("dump", false, "print every segment")
	return func(context.Context) error {
		if *levels < 1 {
			return fmt.Errorf("-levels must be at least 1, got %d", *levels)
		}
		if err := checkBuffer(*buffer); err != nil {
			return err
		}
		tr, err := load()
		if err != nil {
			return err
		}
		var sch *core.Schedule
		switch *mode {
		case "offline":
			opts := trellis.Options{
				Levels:          experiments.FeasibleLevels(tr, *buffer, *levels),
				BufferBits:      *buffer,
				BufferGridBits:  *buffer / 2048,
				DelayBoundSlots: *delay,
				Cost:            core.CostModel{Alpha: *alpha, Beta: *beta},
				RequireDrained:  *drained,
				FinalSlackBits:  *buffer / 100,
			}
			var st trellis.Stats
			if sch, st, err = trellis.Optimize(tr, opts); err != nil {
				return err
			}
			fmt.Printf("optimal cost: %.4g (nodes expanded %d, max frontier %d)\n",
				st.Cost, st.NodesExpanded, st.MaxFrontier)
		case "online":
			p := heuristic.DefaultParams(*delta)
			if *gop {
				p.Predictor = &heuristic.GOP{Len: 12, Coeff: p.ARCoeff}
			}
			res, err := heuristic.Run(tr, *buffer, p, nil)
			if err != nil {
				return err
			}
			sch = res.Schedule
			fmt.Printf("online run: attempts=%d failures=%d lost=%.0f bits maxOcc=%.0f bits\n",
				res.Attempts, res.Failures, res.LostBits, res.MaxOccupancy)
		default:
			return fmt.Errorf("unknown mode %q", *mode)
		}

		fmt.Printf("schedule: segments=%d renegotiations=%d interval=%.2fs\n",
			len(sch.Segments), sch.Renegotiations(), sch.MeanRenegIntervalSec())
		fmt.Printf("rates: mean=%.0f peak=%.0f b/s, bandwidth efficiency=%.4f\n",
			sch.MeanRate(), sch.PeakRate(), sch.BandwidthEfficiency(tr))
		res := sch.Run(tr, *buffer)
		fmt.Printf("replay: lost=%.0f bits (%.2e of arrivals), max occupancy=%.0f bits\n",
			res.LostBits, res.LossFraction(), res.MaxOccupancy)
		if !*dump {
			return nil
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "start(s)\trate(kb/s)")
		for _, ev := range sch.Events() {
			fmt.Fprintf(w, "%.2f\t%.0f\n", ev.TimeSec, ev.Rate/1e3)
		}
		return w.Flush()
	}
}

// traceRun generates a synthetic multiple time-scale MPEG trace (the
// repository's stand-in for the paper's Star Wars trace) or inspects one
// from a file, and optionally writes it out. Its generator flags are its
// own: they default to the full two-hour trace and expose the rate, frame
// rate and GOP pattern.
func traceRun(fs *flag.FlagSet) func(context.Context) error {
	outFile := fs.String("out", "", "output file (empty: print summary only)")
	in := fs.String("in", "", "inspect an existing trace instead of generating")
	frames := fs.Int("frames", 172800, "number of frames")
	seed := fs.Uint64("seed", 1, "generator seed")
	mean := fs.Float64("mean", 374e3, "target mean rate (bits/s)")
	fps := fs.Float64("fps", 24, "frame rate")
	gop := fs.String("gop", "IBBPBBPBBPBB", "GOP pattern")
	peaks := fs.Bool("peaks", false, "list sustained peaks >= 4x mean")
	return func(context.Context) error {
		var tr *trace.Trace
		if *in != "" {
			var err error
			if tr, err = trace.Load(*in); err != nil {
				return err
			}
		} else {
			pattern, err := trace.ParseGOP(*gop)
			if err != nil {
				return err
			}
			cfg := trace.DefaultStarWarsConfig()
			cfg.Frames = *frames
			cfg.MeanRate = *mean
			cfg.FPS = *fps
			cfg.GOP = pattern
			if tr, err = trace.Synthesize(cfg, stats.NewRNG(*seed)); err != nil {
				return err
			}
		}
		sum, err := tr.Summarize()
		if err != nil {
			return err
		}
		fmt.Println(sum)

		if *peaks {
			window := max(int(tr.FPS), 1)
			for _, p := range tr.SustainedPeaks(4*tr.MeanRate(), window) {
				fmt.Printf("peak: start=%.1fs dur=%.1fs mean=%.0f b/s (%.2fx)\n",
					float64(p.Start)/tr.FPS, p.Seconds(tr.FPS), p.MeanRate,
					p.MeanRate/tr.MeanRate())
			}
		}
		if *outFile == "" {
			return nil
		}
		if err := tr.Save(*outFile); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *outFile)
		return nil
	}
}
