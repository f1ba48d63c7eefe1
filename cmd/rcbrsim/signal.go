package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"rcbr/internal/core"
	"rcbr/internal/experiments"
	"rcbr/internal/heuristic"
	"rcbr/internal/metrics"
	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
	"rcbr/internal/trace"
)

// signalRun drives N online heuristic sources through a real in-process UDP
// switch with the full observability stack attached, then reports the metrics
// snapshot and (optionally) dumps it with the per-VC event trace as JSON.
// The link is sized below the aggregate demand so renegotiation denials and
// their event records actually occur.
func signalRun(args []string) error {
	fs := flag.NewFlagSet("signal", flag.ExitOnError)
	frames, seed := commonFlags(fs)
	n := fs.Int("n", 4, "number of heuristic sources sharing the link")
	buffer := fs.Float64("buffer", 600e3, "per-source buffer (bits)")
	delta := fs.Float64("delta", 100e3, "heuristic granularity (bits/s)")
	capFrac := fs.Float64("capfrac", 1.3, "link capacity as a multiple of aggregate mean rate")
	jsonOut := fs.String("json", "", "dump metrics + event trace as JSON to this file (- for stdout)")
	events := fs.Int("events", 1024, "per-VC lifecycle events retained")
	workers := fs.Int("workers", netproto.DefaultWorkers, "concurrent signaling handlers")
	queue := fs.Int("queue", netproto.DefaultQueue, "pending-datagram queue depth (overflow is dropped)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkBuffer(*buffer); err != nil {
		return err
	}
	if *frames <= 0 || *frames > 28800 {
		*frames = 2880
	}
	if *n < 1 {
		return fmt.Errorf("need at least one source, got -n %d", *n)
	}
	if *workers < 1 {
		return fmt.Errorf("need at least one signaling worker, got -workers %d", *workers)
	}
	if *queue < 1 {
		return fmt.Errorf("need a datagram queue of at least one, got -queue %d", *queue)
	}
	if *events < 1 {
		return fmt.Errorf("need at least one retained event, got -events %d", *events)
	}

	// One observability plane for everything: switch, signaling server,
	// signaling client, and every source's heuristic share the registry.
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(*events)
	sw := switchfab.New(switchfab.WithMetrics(reg), switchfab.WithEventTrace(ring))

	traces := make([]*trSource, *n)
	var aggregate float64
	for i := range traces {
		tr := experiments.StarWars(*seed+uint64(i), *frames)
		traces[i] = &trSource{tr: tr}
		aggregate += tr.MeanRate()
	}
	capacity := aggregate * *capFrac
	const portID = 1
	if err := sw.AddPort(portID, capacity); err != nil {
		return err
	}

	srv, err := netproto.NewServer("127.0.0.1:0", sw, netproto.WithServerMetrics(reg),
		netproto.WithWorkers(*workers), netproto.WithQueue(*queue))
	if err != nil {
		return err
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck // exits via Close

	ctx := context.Background()
	cl, err := netproto.DialContext(ctx, srv.Addr().String(),
		netproto.WithTimeout(time.Second), netproto.WithClientMetrics(reg))
	if err != nil {
		return err
	}
	defer cl.Close()

	fmt.Printf("signal: %d sources, %d frames each, link %.2f Mb/s (%.2fx aggregate mean)\n",
		*n, *frames, capacity/1e6, *capFrac)

	// Call setup and one controller per source.
	for i, s := range traces {
		s.vci = uint16(100 + i)
		if err := cl.Setup(ctx, s.vci, portID, *delta); err != nil {
			return err
		}
		p := heuristic.DefaultParams(*delta)
		p.InitialRate = *delta
		p.MaxRate = capacity
		p.GrantTolerance = 1.0 / 128 // 16-bit RM rate quantization
		p.Metrics = reg
		s.buf = core.NewSource(*buffer, s.tr.SlotSeconds(), *delta)
		vci := s.vci
		negotiate := heuristic.NegotiatorFunc(func(current, requested float64) float64 {
			granted, _, err := cl.Renegotiate(ctx, vci, current, requested)
			if err != nil {
				return current // treat signaling failure as a denial
			}
			return granted
		})
		if s.ctl, err = heuristic.NewController(s.buf, p, negotiate); err != nil {
			return err
		}
	}

	// Lockstep slots: the sources contend for the link in real time.
	var attempts, failures int
	for t := 0; t < *frames; t++ {
		for _, s := range traces {
			_, attempted, failed := s.ctl.Step(float64(s.tr.FrameBits[t]))
			if attempted {
				attempts++
			}
			if failed {
				failures++
			}
		}
	}
	for _, s := range traces {
		if err := cl.Teardown(ctx, s.vci); err != nil {
			return err
		}
	}

	snap := reg.Snapshot()
	fmt.Printf("session: %d renegotiation attempts, %d failed\n", attempts, failures)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "metric\tvalue")
	for _, name := range []string{
		switchfab.MetricSetups, switchfab.MetricTeardowns,
		switchfab.MetricRenegs, switchfab.MetricGrants, switchfab.MetricDenials,
		heuristic.MetricTriggers, heuristic.MetricFailures,
		heuristic.MetricHighCrossings, heuristic.MetricLowCrossings,
		netproto.MetricClientRequests, netproto.MetricClientRetries,
		netproto.MetricServerRx,
	} {
		fmt.Fprintf(w, "%s\t%d\n", name, snap.Counters[name])
	}
	if h, ok := snap.Histograms[switchfab.MetricRenegLatency]; ok {
		fmt.Fprintf(w, "%s\t%d obs, mean %.1fus\n",
			switchfab.MetricRenegLatency, h.Count, h.Mean()*1e6)
	}
	if h, ok := snap.Histograms[netproto.MetricClientRTT]; ok {
		fmt.Fprintf(w, "%s\t%d obs, mean %.1fus\n",
			netproto.MetricClientRTT, h.Count, h.Mean()*1e6)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("events: %d recorded, %d retained (port gauge now %.0f b/s)\n",
		ring.Total(), len(ring.Events()), snap.Gauges[switchfab.PortReservedGauge(portID)])

	if *jsonOut != "" {
		return dumpJSON(*jsonOut, snap, ring)
	}
	return nil
}

// trSource bundles one online source's trace, buffer, and controller.
type trSource struct {
	tr  *trace.Trace
	vci uint16
	buf *core.Source
	ctl *heuristic.Controller
}

// signalDump is the -json schema: the full metrics snapshot plus the event
// trace envelope.
type signalDump struct {
	Metrics        metrics.Snapshot `json:"metrics"`
	TotalEvents    uint64           `json:"total_events"`
	RetainedEvents int              `json:"retained_events"`
	Events         []metrics.Event  `json:"events"`
}

func dumpJSON(path string, snap metrics.Snapshot, ring *metrics.EventLog) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	events := ring.Events()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(signalDump{
		Metrics:        snap,
		TotalEvents:    ring.Total(),
		RetainedEvents: len(events),
		Events:         events,
	})
}
