package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"text/tabwriter"
	"time"

	"rcbr/internal/core"
	"rcbr/internal/experiments"
	"rcbr/internal/heuristic"
	"rcbr/internal/mesh"
	"rcbr/internal/metrics"
	"rcbr/internal/stats"
	"rcbr/internal/switchfab"
	"rcbr/internal/trace"
)

// Link-delay presets for the topology experiment. The terrestrial figure is
// a metro/regional fiber hop; the satellite figure is one geostationary
// bounce, the case the paper's Section III-C singles out because a ~550 ms
// renegotiation round trip forces the source to predict that much further
// ahead.
const (
	terrestrialHopDelay = time.Millisecond
	satelliteHopDelay   = 275 * time.Millisecond
)

// topologyRun drives N heuristic sources through a parking-lot chain of
// switches sharing one bottleneck egress link, renegotiating end-to-end over
// the multi-hop mesh, and emits bottleneck-utilization and Jain-fairness
// time series as CSV.
//
// The topology is the classic parking lot: backbone switches s1 -> s2 ->
// ... -> sH -> sink, where every inter-switch link is provisioned above the
// final sH -> sink link. Source i enters at switch s(1 + i mod H), so paths
// range from H hops down to 1 and all contend for the same bottleneck.
// Signaling latency is modeled in virtual time: each source's controller
// sees its own path RTT (per the preset's per-hop delay) as
// SignalDelaySlots, so satellite paths renegotiate with stale estimates
// while the slot loop itself runs at full speed.
func topologyRun(fs *flag.FlagSet) func(context.Context) error {
	frames, seed := boundedFrames(fs, liveMaxFrames, liveMaxFrames)
	n := fs.Int("n", 8, "number of sources sharing the bottleneck")
	hopCount := fs.Int("hops", 3, "backbone switches on the parking-lot chain")
	buffer := fs.Float64("buffer", 600e3, "per-source buffer (bits)")
	delta := fs.Float64("delta", 100e3, "heuristic granularity (bits/s)")
	capFrac := fs.Float64("capfrac", 1.1, "bottleneck capacity as a multiple of aggregate mean rate")
	backbone := fs.Float64("backbone", 4, "inter-switch capacity as a multiple of the bottleneck")
	preset := fs.String("preset", "terrestrial", "link-delay preset: terrestrial (~1 ms/hop) or satellite (~275 ms/hop)")
	sample := fs.Int("sample", 24, "slots between CSV samples")
	csvOut := fs.String("csv", "topology.csv", "time-series CSV output (- for stdout)")
	return func(ctx context.Context) error {
		if err := checkBuffer(*buffer); err != nil {
			return err
		}
		if err := checkFrames(*frames, liveMaxFrames); err != nil {
			return err
		}
		if err := checkMultiple("-capfrac", *capFrac); err != nil {
			return err
		}
		if err := checkMultiple("-backbone", *backbone); err != nil {
			return err
		}
		if *n < 1 {
			return fmt.Errorf("need at least one source, got -n %d", *n)
		}
		if *hopCount < 1 {
			return fmt.Errorf("need at least one switch, got -hops %d", *hopCount)
		}
		if *sample < 1 {
			return fmt.Errorf("need a sample every slot or less often, got -sample %d", *sample)
		}
		var hopDelay time.Duration
		switch *preset {
		case "terrestrial":
			hopDelay = terrestrialHopDelay
		case "satellite":
			hopDelay = satelliteHopDelay
		default:
			return fmt.Errorf("unknown preset %q (want terrestrial or satellite)", *preset)
		}

		// When the CSV goes to stdout, the human-readable run report moves to
		// stderr so the data stays machine-parseable.
		report := io.Writer(os.Stdout)
		if *csvOut == "-" {
			report = os.Stderr
		}

		srcs := make([]*pathSource, *n)
		var aggregate float64
		for i := range srcs {
			tr := experiments.StarWars(*seed+uint64(i), *frames)
			srcs[i] = &pathSource{tr: tr}
			aggregate += tr.MeanRate()
		}
		bottleneck := aggregate * *capFrac
		if math.IsInf(bottleneck, 0) {
			return fmt.Errorf("-capfrac %g: bottleneck capacity is not finite", *capFrac)
		}
		if bottleneck < float64(*n)**delta {
			return fmt.Errorf("-capfrac %g: bottleneck capacity %.4g b/s cannot set up %d sources at -delta %g b/s", *capFrac, bottleneck, *n, *delta)
		}
		if math.IsInf(bottleneck**backbone, 0) {
			return fmt.Errorf("-backbone %g: inter-switch capacity is not finite", *backbone)
		}

		// Build the parking lot: s1..sH chained at backbone capacity, with the
		// final sH -> sink link as the bottleneck every path crosses.
		reg := metrics.NewRegistry()
		m := mesh.New(
			mesh.WithMetrics(reg),
			mesh.WithHopTimeout(2*time.Second),
			mesh.WithDelayScale(0), // delays shape SignalDelaySlots, not wall time
		)
		const egressPort = 1
		names := make([]string, *hopCount, *hopCount+1)
		var bneck *switchfab.Switch // the last switch: its egress is the bottleneck
		for i := range names {
			names[i] = "s" + strconv.Itoa(i+1)
			sw := switchfab.New()
			if err := m.AddSwitch(names[i], sw); err != nil {
				return err
			}
			bneck = sw
		}
		if err := m.AddHost("sink"); err != nil {
			return err
		}
		names = append(names, "sink")
		last := names[*hopCount-1]
		for i := 0; i+1 < len(names); i++ {
			capacity := bottleneck * *backbone
			if names[i] == last {
				capacity = bottleneck
			}
			if err := m.AddLink(names[i], names[i+1], egressPort, capacity, hopDelay); err != nil {
				return err
			}
		}

		fmt.Fprintf(report, "topology: %d sources over %d-switch parking lot, preset %s (%v/hop)\n",
			*n, *hopCount, *preset, hopDelay)
		fmt.Fprintf(report, "bottleneck %s->sink: %.2f Mb/s (%.2fx aggregate mean), backbone %.2fx bottleneck\n",
			last, bottleneck/1e6, *capFrac, *backbone)

		slotSec := srcs[0].tr.SlotSeconds()
		for i, s := range srcs {
			// Parking-lot entry: source i joins the chain at switch i mod H,
			// so later sources traverse fewer hops.
			entry := i % *hopCount
			hops, err := m.Route(names[entry:]...)
			if err != nil {
				return err
			}
			id := switchfab.MakeVCID(1, uint16(100+i))
			if s.path, err = m.SetupPath(ctx, id, hops, *delta); err != nil {
				return err
			}
			defer s.path.Teardown(ctx) //nolint:errcheck // best-effort cleanup on early error

			p := heuristic.DefaultParams(*delta)
			p.InitialRate = *delta
			p.MaxRate = bottleneck
			p.Metrics = reg
			p.SignalDelaySlots = int(math.Ceil(s.path.RTT().Seconds() / slotSec))
			s.buf = core.NewSource(*buffer, slotSec, *delta)
			pth := s.path
			negotiate := heuristic.NegotiatorFunc(func(current, requested float64) float64 {
				granted, err := pth.Renegotiate(ctx, requested)
				if err != nil {
					var re *mesh.RateError
					if !errors.As(err, &re) {
						return current // transport failure, not a counter-offer
					}
				}
				return granted // min along the path, possibly below the ask
			})
			if s.ctl, err = heuristic.NewController(s.buf, p, negotiate); err != nil {
				return err
			}
			if i == 0 || i == *hopCount-1 {
				fmt.Fprintf(report, "source %d: %d hops, RTT %v -> signal delay %d slots\n",
					i, s.path.Hops(), s.path.RTT(), p.SignalDelaySlots)
			}
		}

		out := os.Stdout
		if *csvOut != "-" {
			f, err := os.Create(*csvOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		w := csv.NewWriter(out)
		if err := w.Write([]string{"slot", "seconds", "utilization", "jain"}); err != nil {
			return err
		}

		// Lockstep slots: every source steps once per slot, contending for the
		// shared bottleneck through its own multi-hop path.
		var utilAcc, jainAcc stats.Accumulator
		var attempts, failures int
		rates := make([]float64, *n)
		for t := 0; t < *frames; t++ {
			for i, s := range srcs {
				rate, attempted, failed := s.ctl.Step(float64(s.tr.FrameBits[t]))
				rates[i] = rate
				if attempted {
					attempts++
				}
				if failed {
					failures++
				}
			}
			if t%*sample != 0 {
				continue
			}
			reserved, capacity, err := bneck.PortLoad(egressPort)
			if err != nil {
				return err
			}
			util := reserved / capacity
			jain := stats.JainIndex(rates)
			utilAcc.Add(util)
			jainAcc.Add(jain)
			if err := w.Write([]string{
				strconv.Itoa(t),
				strconv.FormatFloat(float64(t)*slotSec, 'f', 3, 64),
				strconv.FormatFloat(util, 'f', 4, 64),
				strconv.FormatFloat(jain, 'f', 4, 64),
			}); err != nil {
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
		for _, s := range srcs {
			if err := s.path.Teardown(ctx); err != nil {
				return err
			}
		}

		fmt.Fprintf(report, "session: %d renegotiation attempts, %d failed\n", attempts, failures)
		fmt.Fprintf(report, "bottleneck utilization: mean %.3f, max %.3f; Jain index: mean %.3f, min %.3f\n",
			utilAcc.Mean(), utilAcc.Max(), jainAcc.Mean(), jainAcc.Min())
		snap := reg.Snapshot()
		tw := tabwriter.NewWriter(report, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tvalue")
		for _, name := range []string{
			mesh.MetricMeshSetups, mesh.MetricMeshTeardowns, mesh.MetricMeshRenegs,
			mesh.MetricMeshGrants, mesh.MetricMeshPartials, mesh.MetricMeshDenials,
			mesh.MetricMeshRollbackHops, mesh.MetricMeshHopTimeouts,
			heuristic.MetricTriggers, heuristic.MetricFailures,
		} {
			fmt.Fprintf(tw, "%s\t%d\n", name, snap.Counters[name])
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		if *csvOut != "-" {
			fmt.Fprintf(report, "time series: %s\n", *csvOut)
		}
		return nil
	}
}

// pathSource bundles one source's trace, buffer, controller, and its
// multi-hop path through the mesh.
type pathSource struct {
	tr   *trace.Trace
	buf  *core.Source
	ctl  *heuristic.Controller
	path *mesh.Path
}
