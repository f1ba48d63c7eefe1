// Command rcbrsim runs every offline experiment and tool of the RCBR
// repository: the figures of the paper's evaluation, a renegotiation
// schedule for one trace, and the synthetic trace generator.
//
// Usage:
//
//	rcbrsim fig2  [-frames N] [-seed S]            renegotiation tradeoff
//	rcbrsim fig5  [-frames N] [-seed S]            (c, B) curve
//	rcbrsim fig6  [-frames N] [-seed S] [-ns ...]  SMG of the three scenarios
//	rcbrsim fig7  [-frames N] [-seed S]            memoryless MBAC failure
//	rcbrsim fig8  [-frames N] [-seed S]            memoryless MBAC utilization
//	rcbrsim fig9  [-frames N] [-seed S]            memory MBAC (extension)
//	rcbrsim analysis                               eqs. (9)-(11) on Fig. 4 model
//	rcbrsim section2 [-bucket B]                   the one-shot descriptor dilemma, quantified
//	rcbrsim muxcmp [-n N] [-util U]                cell-level buffering: CBR vs VBR bursts
//	rcbrsim datapath [-n N] [-hops H] [-csv F]     real cells through a forwarder chain: loss/delay CSV
//	rcbrsim latency [-buffer B] [-delta D]         online performance vs signaling delay
//	rcbrsim chernoff [-alpha A] [-samples N]       eq. (12) estimate vs Monte-Carlo
//	rcbrsim fit [-classes K] [-buffer B]           fit an MTS model to a trace, check eq. 9
//	rcbrsim rvbr [-alpha A] [-margin M]            renegotiated CBR vs renegotiated token bucket
//	rcbrsim signal [-n N] [-json out.json]         online sources over a live UDP switch
//	rcbrsim churn  [-vcs N] [-admit memory|none]   call-scale churn against a live switch
//	rcbrsim topology [-n N] [-preset P] [-csv F]   parking-lot mesh, utilization + fairness CSV
//	rcbrsim schedule [-mode M] [-in F] [-dump]     optimal or online renegotiation schedule of a trace
//	rcbrsim trace [-out F] [-in F] [-peaks]        generate, inspect or export a synthetic trace
//
// Full-length runs (-frames 0 selects the whole two-hour trace) reproduce
// the paper's setup; shorter traces keep the shapes with less wall time.
// muxcmp and datapath take 1..14400 frames, signal and topology 1..28800.
//
// The profiling flags -cpuprofile F and -memprofile F come before the
// command name and work for every command. The figure sweeps run their grid
// points on GOMAXPROCS workers; the results do not depend on how many.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"

	"rcbr/internal/experiments"
	"rcbr/internal/fit"
	"rcbr/internal/ld"
	"rcbr/internal/queue"
	"rcbr/internal/rvbr"
	"rcbr/internal/trace"
)

// command is one subcommand. The table drives dispatch and usage(), and a
// test holds the package comment to it, name and summary. flags registers
// the command's flags on the set the dispatcher hands it and returns the run
// that reads them once they are parsed.
type command struct {
	name, summary string
	flags         func(fs *flag.FlagSet) func(ctx context.Context) error
}

var commands = []command{
	{"fig2", "renegotiation tradeoff", fig2},
	{"fig5", "(c, B) curve", fig5},
	{"fig6", "SMG of the three scenarios", fig6},
	{"fig7", "memoryless MBAC failure", mbac("memoryless", "fig7: memoryless MBAC renegotiation failure probability")},
	{"fig8", "memoryless MBAC utilization", mbac("memoryless", "fig8: memoryless MBAC normalized utilization")},
	{"fig9", "memory MBAC (extension)", mbac("memory", "fig9 (extension): memory-based MBAC")},
	{"analysis", "eqs. (9)-(11) on Fig. 4 model", analysis},
	{"section2", "the one-shot descriptor dilemma, quantified", section2},
	{"muxcmp", "cell-level buffering: CBR vs VBR bursts", muxcmp},
	{"datapath", "real cells through a forwarder chain: loss/delay CSV", datapathRun},
	{"latency", "online performance vs signaling delay", latency},
	{"chernoff", "eq. (12) estimate vs Monte-Carlo", chernoff},
	{"fit", "fit an MTS model to a trace, check eq. 9", fitModel},
	{"rvbr", "renegotiated CBR vs renegotiated token bucket", rvbrCompare},
	{"signal", "online sources over a live UDP switch", signalRun},
	{"churn", "call-scale churn against a live switch", churnRun},
	{"topology", "parking-lot mesh, utilization + fairness CSV", topologyRun},
	{"schedule", "optimal or online renegotiation schedule of a trace", scheduleRun},
	{"trace", "generate, inspect or export a synthetic trace", traceRun},
}

// errUsage marks a command line that names no command the table has.
var errUsage = errors.New("unknown command")

func main() {
	err := dispatch(os.Args[1:])
	if errors.Is(err, errUsage) {
		fmt.Fprintf(os.Stderr, "rcbrsim: %v\n", err)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcbrsim %v\n", err)
		os.Exit(1)
	}
}

// dispatch runs one command line: the global profiling flags, the command
// name, then the command's own flags. The command runs under a context that
// Ctrl-C cancels, so a sweep stops instead of the process dying mid-write.
func dispatch(args []string) error {
	global := flag.NewFlagSet("rcbrsim", flag.ExitOnError)
	global.Usage = usage
	cpuProfile := global.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := global.String("memprofile", "", "write a heap profile to this file on exit")
	if err := global.Parse(args); err != nil {
		return err
	}
	if global.NArg() == 0 {
		return fmt.Errorf("%w: none given", errUsage)
	}
	name := global.Arg(0)
	if name == "help" {
		usage()
		return nil
	}
	for _, c := range commands {
		if c.name != name {
			continue
		}
		fs := flag.NewFlagSet(name, flag.ExitOnError)
		run := c.flags(fs)
		if err := fs.Parse(global.Args()[1:]); err != nil {
			return err
		}
		stopProfile, err := startProfile(*cpuProfile, *memProfile)
		if err != nil {
			return err
		}
		defer stopProfile()
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		defer cancel()
		if err := run(ctx); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	return fmt.Errorf("%w %q", errUsage, name)
}

func usage() {
	fmt.Fprintln(os.Stderr, "rcbrsim runs the RCBR paper's offline experiments and tools.\n"+
		"usage: rcbrsim [-cpuprofile F] [-memprofile F] <command> [flags]\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, `run "rcbrsim <command> -h" for per-command flags`)
}

// commonFlags registers the trace-selection flags shared by the figure
// commands.
func commonFlags(fs *flag.FlagSet) (*int, *uint64) {
	frames := fs.Int("frames", 28800, "trace length in frames (0 = full two hours)")
	seed := fs.Uint64("seed", 1, "trace generator seed")
	return frames, seed
}

// traceFlags registers commonFlags' -frames and -seed beside -in, for the
// commands that also read a trace file. The function it returns loads the
// file, or synthesizes the trace without -in, and prints its summary line.
func traceFlags(fs *flag.FlagSet) func() (*trace.Trace, error) {
	frames, seed := commonFlags(fs)
	in := fs.String("in", "", "trace file (empty: synthesize)")
	return func() (*trace.Trace, error) {
		if *in == "" {
			return buildTrace(*frames, *seed), nil
		}
		tr, err := trace.Load(*in)
		if err != nil {
			return nil, err
		}
		sum, err := tr.Summarize()
		if err != nil {
			return nil, err
		}
		fmt.Printf("trace: %s\n", sum)
		return tr, nil
	}
}

// boundedFrames registers -frames and -seed for the commands that replay the
// trace cell by cell or over a live switch: -frames defaults to def, and
// checkFrames refuses a value outside [1, max].
func boundedFrames(fs *flag.FlagSet, def, max int) (*int, *uint64) {
	frames := fs.Int("frames", def, fmt.Sprintf("trace length in frames, 1..%d", max))
	seed := fs.Uint64("seed", 1, "trace generator seed")
	return frames, seed
}

func checkFrames(frames, max int) error {
	if frames < 1 || frames > max {
		return fmt.Errorf("-frames must be in [1, %d], got %d", max, frames)
	}
	return nil
}

// startProfile begins CPU profiling if cpu names a file and returns a stop
// function to defer; stop also writes the heap profile if mem names one.
// Profile-writing failures are reported on stderr rather than failing the
// experiment that produced them.
func startProfile(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}

func buildTrace(frames int, seed uint64) *trace.Trace {
	tr := experiments.StarWars(seed, frames)
	sum, err := tr.Summarize()
	if err == nil {
		fmt.Printf("trace: %s\n", sum)
	}
	return tr
}

// checkBuffer refuses a -buffer the queue and source models panic on: a flag
// value is input, so it comes back as an error.
func checkBuffer(bits float64) error {
	if !(bits > 0) || math.IsInf(bits, 0) {
		return fmt.Errorf("-buffer must be a positive finite number of bits, got %g", bits)
	}
	return nil
}

// checkMultiple refuses a link-capacity multiple that is not positive and
// finite, naming its flag: NaN passes every comparison made with it, and a
// capacity of NaN or +Inf would otherwise surface as some other layer's
// error, or a slot of garbage length.
func checkMultiple(flag string, v float64) error {
	if !(v > 0) || math.IsInf(v, 0) {
		return fmt.Errorf("%s must be a positive finite multiple, got %g", flag, v)
	}
	return nil
}

func fig2(fs *flag.FlagSet) func(context.Context) error {
	frames, seed := commonFlags(fs)
	buffer := fs.Float64("buffer", 300e3, "source buffer B in bits")
	levels := fs.Int("levels", 20, "number of OPT bandwidth levels")
	return func(ctx context.Context) error {
		if err := checkBuffer(*buffer); err != nil {
			return err
		}
		if *levels < 1 {
			return fmt.Errorf("-levels must be at least 1, got %d", *levels)
		}
		tr := buildTrace(*frames, *seed)
		cfg := experiments.DefaultFig2Config(tr)
		cfg.BufferBits = *buffer
		cfg.Levels = experiments.FeasibleLevels(tr, *buffer, *levels)
		rows, err := experiments.Fig2(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println("fig2: mean renegotiation interval vs bandwidth efficiency (B = 300 kb)")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "kind\tparam\trenegs\tinterval(s)\tefficiency\tmaxOcc(kb)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.3g\t%d\t%.2f\t%.4f\t%.1f\n",
				r.Kind, r.Param, r.Renegotiations, r.RenegIntervalSec,
				r.Efficiency, r.MaxOccupancyBits/1e3)
		}
		return w.Flush()
	}
}

func fig5(fs *flag.FlagSet) func(context.Context) error {
	frames, seed := commonFlags(fs)
	target := fs.Float64("loss", 1e-6, "bit-loss fraction target")
	points := fs.Int("points", 12, "points on the curve")
	bufLo := fs.Float64("buflo", 30e3, "smallest buffer (bits)")
	bufHi := fs.Float64("bufhi", 200e6, "largest buffer (bits)")
	return func(context.Context) error {
		switch {
		case *points < 2:
			return fmt.Errorf("-points must be at least 2, got %d", *points)
		case !(*bufLo > 0 && *bufLo <= *bufHi) || math.IsInf(*bufHi, 0):
			return fmt.Errorf("-buflo and -bufhi must satisfy 0 < buflo <= bufhi < +Inf, got %g and %g", *bufLo, *bufHi)
		case !(*target >= 0 && *target < 1):
			return fmt.Errorf("-loss must be in [0, 1), got %g", *target)
		}
		tr := buildTrace(*frames, *seed)
		pts := experiments.Fig5(tr, *target, *bufLo, *bufHi, *points)
		mean := tr.MeanRate()
		fmt.Printf("fig5: (c, B) curve for loss <= %g\n", *target)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "buffer(kb)\tminRate(kb/s)\trate/mean")
		for _, p := range pts {
			fmt.Fprintf(w, "%.0f\t%.0f\t%.2f\n", p.BufferBits/1e3, p.Rate/1e3, p.Rate/mean)
		}
		return w.Flush()
	}
}

func fig6(fs *flag.FlagSet) func(context.Context) error {
	frames, seed := commonFlags(fs)
	alpha := fs.Float64("alpha", 3e6, "renegotiation cost (3e6: one per 27.9 s; 1e6: one per 16.9 s)")
	target := fs.Float64("loss", 1e-6, "bit-loss fraction target")
	nsFlag := fs.String("ns", "1,2,5,10,20,50,100,200,500,1000", "source counts")
	maxReps := fs.Int("reps", 20, "max randomized phasings per capacity")
	return func(ctx context.Context) error {
		ns, err := parseInts(*nsFlag)
		if err != nil {
			return err
		}
		tr := buildTrace(*frames, *seed)
		cfg, err := experiments.DefaultFig6Config(tr, *alpha)
		if err != nil {
			return err
		}
		cfg.Ns = ns
		cfg.LossTarget = *target
		cfg.MaxReps = *maxReps
		fmt.Printf("fig6: schedule renegs=%d interval=%.1fs efficiency=%.4f\n",
			cfg.Schedule.Renegotiations(), cfg.Schedule.MeanRenegIntervalSec(),
			cfg.Schedule.BandwidthEfficiency(tr))
		pts, err := experiments.Fig6(ctx, cfg)
		if err != nil {
			return err
		}
		mean := tr.MeanRate()
		fmt.Printf("fig6: per-stream capacity (units of mean rate %.0f b/s) for loss <= %g\n",
			mean, *target)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "N\tCBR\tshared\tRCBR")
		for _, p := range pts {
			fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.2f\n",
				p.N, p.CBR/mean, p.Shared/mean, p.RCBR/mean)
		}
		return w.Flush()
	}
}

// mbac is the table entry of Figs. 7, 8 and 9: the admission sweep for one
// scheme, printed under title.
func mbac(scheme, title string) func(*flag.FlagSet) func(context.Context) error {
	return func(fs *flag.FlagSet) func(context.Context) error {
		frames, seed := commonFlags(fs)
		alpha := fs.Float64("alpha", 3e6, "schedule renegotiation cost")
		capsFlag := fs.String("caps", "10,25,50,100", "link capacities (multiples of call mean rate)")
		loadsFlag := fs.String("loads", "0.4,0.6,0.8,1.0,1.2", "normalized offered loads")
		target := fs.Float64("target", 1e-3, "renegotiation failure target")
		maxBatches := fs.Int("batches", 40, "max measurement batches")
		return func(ctx context.Context) error {
			capsM, err := parseFloats(*capsFlag)
			if err != nil {
				return err
			}
			loads, err := parseFloats(*loadsFlag)
			if err != nil {
				return err
			}
			tr := buildTrace(*frames, *seed)
			cfg6, err := experiments.DefaultFig6Config(tr, *alpha)
			if err != nil {
				return err
			}
			cfg := experiments.DefaultMBACConfig(cfg6.Schedule)
			cfg.CapacityMultiples = capsM
			cfg.Loads = loads
			cfg.TargetFailure = *target
			cfg.Schemes = []string{scheme}
			cfg.MaxBatches = *maxBatches
			cfg.Seed = *seed
			rows, err := experiments.MBAC(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Println(title)
			fmt.Printf("target failure probability: %g\n", *target)
			w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(w, "capX\tload\tfailProb\t(perfect)\tnormUtil\tutil\tblocking\tbatches")
			for _, r := range rows {
				fmt.Fprintf(w, "%.0f\t%.2f\t%.2e\t%.2e\t%.3f\t%.3f\t%.3f\t%d\n",
					r.CapacityX, r.Load, r.FailureProb, r.PerfectFail,
					r.NormUtil, r.Utilization, r.BlockingProb, r.Batches)
			}
			return w.Flush()
		}
	}
}

func analysis(fs *flag.FlagSet) func(context.Context) error {
	mean := fs.Float64("mean", 1000, "source mean rate (bits/slot)")
	buffer := fs.Float64("buffer", 5000, "per-source buffer (bits)")
	target := fs.Float64("loss", 1e-6, "per-subchain overflow target")
	return func(context.Context) error {
		res, err := experiments.Analysis(*mean, *buffer, *target, []int{10, 100, 1000})
		if err != nil {
			return err
		}
		fmt.Println("analysis: eqs. (9)-(11) on the Fig. 4 three-subchain source")
		fmt.Printf("mean rate: %.1f bits/slot\n", res.MeanRate)
		for i, e := range res.SubchainEB {
			fmt.Printf("subchain %d equivalent bandwidth e_%d(B): %.1f\n", i, i, e)
		}
		fmt.Printf("whole-stream EB (eq. 9, max_i e_i): %.1f  (max subchain mean %.1f)\n",
			res.WholeEB, res.MaxSubMean)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "c/mean\tN\tsharedLoss(eq10)\trcbrFailure(eq11)")
		for _, r := range res.Rows {
			fmt.Fprintf(w, "%.1f\t%d\t%.3e\t%.3e\n",
				r.CPerOverMean, r.N, r.SharedLoss, r.RCBRFailure)
		}
		return w.Flush()
	}
}

func section2(fs *flag.FlagSet) func(context.Context) error {
	frames, seed := commonFlags(fs)
	bucket := fs.Float64("bucket", 300e3, "small bucket/buffer size in bits")
	return func(context.Context) error {
		tr := buildTrace(*frames, *seed)
		rows, err := experiments.Section2(tr,
			[]float64{1.05, 1.2, 1.5, 2, 3, 4, 5}, *bucket)
		if err != nil {
			return err
		}
		fmt.Println("section2: the one-shot descriptor dilemma (token bucket (r, b))")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		kb := *bucket / 1e3
		fmt.Fprintf(w, "r/mean\tb*(r) lossless (Mb)\tpolice@%gkb loss\tshape@%gkb delay(s)\n", kb, kb)
		for _, r := range rows {
			fmt.Fprintf(w, "%.2f\t%.2f\t%.2e\t%.2f\n",
				r.RateOverMean, r.MinDepthBits/1e6, r.PolicingLoss, r.ShapingDelaySec)
		}
		return w.Flush()
	}
}

// Bounds on -frames for the commands that do not take the whole trace. The
// cell-level ones (muxcmp, datapath) simulate every cell, so their trace
// defaults to two minutes and stops at ten; signal and topology run their
// sources over a live switch and stop at the figure commands' 20 minutes.
const (
	cellDefaultFrames, cellMaxFrames = 2400, 14400
	liveMaxFrames                    = 28800
)

func muxcmp(fs *flag.FlagSet) func(context.Context) error {
	frames, seed := boundedFrames(fs, cellDefaultFrames, cellMaxFrames)
	n := fs.Int("n", 8, "number of multiplexed sources")
	util := fs.Float64("util", 0.8, "link utilization")
	return func(context.Context) error {
		if err := checkFrames(*frames, cellMaxFrames); err != nil {
			return err
		}
		tr := buildTrace(*frames, *seed)
		res, err := experiments.DataPath(tr, *n, tr.MeanRate()*1.2, *util, *seed)
		if err != nil {
			return err
		}
		fmt.Println("muxcmp: cell-level FIFO multiplexer, smoothed CBR vs raw VBR bursts")
		fmt.Printf("sources: %d, link %.0f cells/s, utilization %.0f%%\n",
			res.Sources, res.LinkCellRate, *util*100)
		fmt.Printf("CBR (RCBR output): max queue %d cells, mean delay %.1f cell times\n",
			res.CBRMaxQueue, res.CBRMeanDelay)
		fmt.Printf("VBR frame bursts:  max queue %d cells, mean delay %.1f cell times\n",
			res.BurstMaxQueue, res.BurstMeanDelay)
		fmt.Printf("buffering ratio: %.0fx — the Section III small-buffer argument\n",
			res.QueueRatio)
		return nil
	}
}

func latency(fs *flag.FlagSet) func(context.Context) error {
	frames, seed := commonFlags(fs)
	buffer := fs.Float64("buffer", 300e3, "source buffer B in bits")
	delta := fs.Float64("delta", 64e3, "heuristic granularity")
	return func(ctx context.Context) error {
		if err := checkBuffer(*buffer); err != nil {
			return err
		}
		tr := buildTrace(*frames, *seed)
		rows, err := experiments.Latency(ctx, tr, *buffer, *delta,
			[]int{0, 2, 6, 12, 24, 48, 96})
		if err != nil {
			return err
		}
		fmt.Println("latency (extension): online heuristic vs signaling round-trip delay")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "delay(slots)\tdelay(ms)\tefficiency\tmaxOcc(kb)\tlost(bits)\tinterval(s)")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%.0f\t%.4f\t%.1f\t%.0f\t%.2f\n",
				r.DelaySlots, r.DelayMs, r.Efficiency, r.MaxOccupancyBits/1e3,
				r.LostBits, r.RenegIntervalSec)
		}
		return w.Flush()
	}
}

func chernoff(fs *flag.FlagSet) func(context.Context) error {
	frames, seed := commonFlags(fs)
	alpha := fs.Float64("alpha", 1e6, "schedule renegotiation cost")
	samples := fs.Int("samples", 20000, "Monte-Carlo samples per cell")
	return func(ctx context.Context) error {
		tr := buildTrace(*frames, *seed)
		cfg6, err := experiments.DefaultFig6Config(tr, *alpha)
		if err != nil {
			return err
		}
		levels := experiments.FeasibleGridLevels(tr, 300e3, 64e3)
		rows, err := experiments.ChernoffValidation(ctx, cfg6.Schedule, levels,
			[]int{10, 50, 200}, []float64{1.1, 1.3, 1.6, 2.0}, *samples, *seed)
		if err != nil {
			return err
		}
		fmt.Println("chernoff: eq. (12) estimate vs Monte-Carlo overload probability")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "N\tc/mean\tchernoff\tsimulated")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%.1f\t%.3e\t%.3e\n", r.N, r.CPerMean, r.Chernoff, r.Simulated)
		}
		return w.Flush()
	}
}

func fitModel(fs *flag.FlagSet) func(context.Context) error {
	load := traceFlags(fs)
	classes := fs.Int("classes", 4, "number of slow time-scale classes")
	buffer := fs.Float64("buffer", 300e3, "buffer for the eq. 9 comparison (bits)")
	target := fs.Float64("loss", 1e-6, "loss target for the comparison")
	return func(context.Context) error {
		tr, err := load()
		if err != nil {
			return err
		}
		opt := fit.DefaultOptions(tr)
		opt.Classes = *classes
		model, err := fit.Fit(tr, opt)
		if err != nil {
			return err
		}
		fmt.Printf("fit: %d classes, mean dwell %.1f slots (%.2f s), epsilon %.2e\n",
			len(model.ClassMeans), model.MeanDwellSlots,
			model.MeanDwellSlots*tr.SlotSeconds(), model.MTS.Epsilon)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "class\tshare\tmean(kb/s)")
		for i := range model.ClassMeans {
			fmt.Fprintf(w, "%d\t%.3f\t%.0f\n", i, model.ClassShare[i],
				model.ClassMeans[i]*tr.FPS/1e3)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		// The payoff: eq. (9) on the fitted model vs the measured requirement.
		bw, err := ld.MTSEffectiveBandwidth(model.MTS, *buffer, *target)
		if err != nil {
			return err
		}
		measured := queue.MinRateForLoss(queue.Arrivals(tr), tr.SlotSeconds(), *buffer, *target)
		fmt.Printf("eq. 9 whole-stream EB: %.0f kb/s; measured c(B=%.0f kb): %.0f kb/s (ratio %.2f)\n",
			bw.Whole*tr.FPS/1e3, *buffer/1e3, measured/1e3, bw.Whole*tr.FPS/measured)
		return nil
	}
}

func rvbrCompare(fs *flag.FlagSet) func(context.Context) error {
	frames, seed := commonFlags(fs)
	alpha := fs.Float64("alpha", 1e6, "schedule renegotiation cost")
	buffer := fs.Float64("buffer", 300e3, "RCBR source buffer (bits)")
	margin := fs.Float64("margin", 1.0, "RVBR token-rate margin (>= 1)")
	return func(context.Context) error {
		if err := checkBuffer(*buffer); err != nil {
			return err
		}
		tr := buildTrace(*frames, *seed)
		sch, err := experiments.OptimalSchedule(tr, *buffer, *alpha,
			experiments.FeasibleLevels(tr, *buffer, 20))
		if err != nil {
			return err
		}
		cmp, rv, err := rvbr.Compare(tr, sch, *buffer, *margin)
		if err != nil {
			return err
		}
		fmt.Println("rvbr (Section VIII): renegotiated CBR vs renegotiated token bucket,")
		fmt.Println("same traffic, same renegotiation points")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "service\tmean reserved (kb/s)\tnetwork burst exposure\tsource buffer")
		fmt.Fprintf(w, "RCBR\t%.0f\tnone (CBR in network)\t%.0f kb\n",
			cmp.RCBRMeanRate/1e3, cmp.RCBRSourceBuffer/1e3)
		fmt.Fprintf(w, "RVBR\t%.0f\tmax %.0f kb / hop (mean %.0f kb)\tnone\n",
			cmp.RVBRMeanRate/1e3, cmp.RVBRMaxNetworkBurst/1e3, cmp.RVBRMeanNetworkBurst/1e3)
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Printf("rate savings from the bucket: %.1f%%; segments: %d\n",
			100*cmp.RateSavings, len(rv.Segments))
		fmt.Println("the bucket buys little rate but re-commits every hop to buffering bursts —")
		fmt.Println("the loss-of-protection cost RCBR's all-CBR data path avoids")
		return nil
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
