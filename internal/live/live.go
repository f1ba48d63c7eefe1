// Package live runs the paper's service as one loop (Sections III and IV-B):
// N sources run the online heuristic over their traces, each renegotiation
// walks a mesh.Path of H switches and settles at the minimum any hop grants,
// and, with cells on, the sources' raw frame-rate cells cross the same
// switches' data planes through a mesh.CellPath in slot time, policed at the
// rates the switches granted.
//
// rcbrsim's signal, topology and datapath commands are its three Presets. A
// preset fixes the structure of a run: whether hop 1 is a switch behind a
// loopback UDP signaling server, whether the sources enter a parking lot at
// staggered hops, and whether cells run.
package live

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"strconv"
	"text/tabwriter"
	"time"

	"rcbr/internal/core"
	"rcbr/internal/datapath"
	"rcbr/internal/heuristic"
	"rcbr/internal/mesh"
	"rcbr/internal/metrics"
	"rcbr/internal/netproto"
	"rcbr/internal/stats"
	"rcbr/internal/switchfab"
	"rcbr/internal/trace"
)

// Preset is the structure of a run and the defaults of its flags.
type Preset struct {
	Name string
	// UDP puts hop 1 behind a signaling server on loopback UDP, reached
	// through a mesh.ClientTransport; the other hops are in process.
	UDP bool
	// Staggered enters source i at hop i mod Hops: a parking lot whose
	// paths all end on the last link.
	Staggered bool
	// Cells replays every source's raw frame-rate cell stream through the
	// hops' forwarders, each its switch's data plane.
	Cells    bool
	Defaults Config
}

// Config is a run's numbers. Every field is the rcbrsim flag named beside
// it, and Run's one input check names that flag when it refuses a value.
type Config struct {
	Frames   int           // -frames: trace length per source
	Seed     uint64        // -seed: source i's trace is generated from Seed+i
	Sources  int           // -n
	Hops     int           // -hops: switches on the chain
	Buffer   float64       // -buffer: per-source smoothing buffer, bits
	Delta    float64       // -delta: heuristic granularity, b/s
	CapFrac  float64       // -capfrac: last link's capacity over the sources' aggregate mean rate
	Backbone float64       // -backbone: every other link's capacity over the last link's
	HopDelay time.Duration // -hopdelay: one-way delay of every link
	// -csv and -json name files, "" none and "-" stdout: one row per trace
	// second, and the metrics snapshot with the switches' event log.
	CSV, JSON string
}

// The three presets. A terrestrial hop is 1 ms; a geostationary one is
// -hopdelay 275ms, a ~550 ms renegotiation round trip per hop (Section
// III-C).
var (
	Signal = Preset{Name: "signal", UDP: true, Defaults: Config{
		Frames: maxFrames, Seed: 1, Sources: 4, Hops: 1,
		Buffer: 600e3, Delta: 100e3, CapFrac: 1.3, Backbone: 1,
	}}
	Topology = Preset{Name: "topology", Staggered: true, Defaults: Config{
		Frames: maxFrames, Seed: 1, Sources: 8, Hops: 3,
		Buffer: 600e3, Delta: 100e3, CapFrac: 1.1, Backbone: 4, HopDelay: time.Millisecond,
		CSV: "topology.csv",
	}}
	Datapath = Preset{Name: "datapath", Cells: true, Defaults: Config{
		Frames: 2400, Seed: 1, Sources: 4, Hops: 3,
		Buffer: 300e3, Delta: 64e3, CapFrac: 1.2, Backbone: 1, HopDelay: time.Millisecond,
		CSV: "datapath.csv",
	}}
)

const (
	// maxFrames is the figure commands' 20 minutes of trace; a cell run
	// simulates every cell and stops at ten.
	maxFrames, maxCellFrames = 28800, 14400
	maxHopDelay              = time.Minute
	ingress, egress          = 0, 1
	ringCells, depthCells    = 1024, 64 // per forwarder port, per VC shaper
)

// check refuses what no run can use, naming the flag. NaN fails every
// comparison made with it, so each bound is written to let it fail.
func (p Preset) check(c Config) error {
	frames := maxFrames
	if p.Cells {
		frames = maxCellFrames
	}
	switch {
	case c.Frames < 1 || c.Frames > frames:
		return fmt.Errorf("-frames must be in [1, %d], got %d", frames, c.Frames)
	case c.Sources < 1:
		return fmt.Errorf("need at least one source, got -n %d", c.Sources)
	case c.Hops < 1:
		return fmt.Errorf("need at least one switch, got -hops %d", c.Hops)
	case !(c.Buffer > 0) || math.IsInf(c.Buffer, 1):
		return fmt.Errorf("-buffer must be a positive finite number of bits, got %g", c.Buffer)
	case !(c.Delta > 0) || math.IsInf(c.Delta, 1):
		return fmt.Errorf("-delta must be a positive finite rate, got %g", c.Delta)
	case !(c.CapFrac > 0) || math.IsInf(c.CapFrac, 1):
		return fmt.Errorf("-capfrac must be a positive finite multiple, got %g", c.CapFrac)
	case !(c.Backbone >= 1) || math.IsInf(c.Backbone, 1):
		// Below 1 an inter-switch link, not the last one, is the bottleneck.
		return fmt.Errorf("-backbone must be a finite multiple of at least 1, got %g", c.Backbone)
	case c.HopDelay < 0 || c.HopDelay > maxHopDelay:
		return fmt.Errorf("-hopdelay must be in [0, %v], got %v", maxHopDelay, c.HopDelay)
	}
	return nil
}

type source struct {
	tr    *trace.Trace
	src   *core.Source
	ctl   *heuristic.Controller
	path  *mesh.Path
	id    switchfab.VCID
	delay int     // SignalDelaySlots: frames from a grant to the source's rate
	bits  float64 // bits of the frames already over
	sent  int64   // cells offered so far
}

type loop struct {
	p        Preset
	c        Config
	reg      *metrics.Registry
	ring     *metrics.EventLog
	switches []*switchfab.Switch
	fws      []*datapath.Forwarder
	cp       *mesh.CellPath
	srv      *netproto.Server
	served   chan error
	cl       *netproto.Client
	srcs     []*source

	capacity   float64 // the last link's
	frame      int     // the frame being stepped
	tick       int64   // the next cell slot
	perFrame   float64 // cell slots per frame
	slotNanos  int64
	delaySlots int64 // every link's, in cell slots

	util, jain stats.Accumulator
}

// Run builds the preset's network, drives every source over its trace and
// writes the report, the time series and the dump. With cells it drains the
// chain and fails unless every offered cell is delivered or counted dropped.
func Run(ctx context.Context, p Preset, c Config, report io.Writer) error {
	l, err := build(ctx, p, c)
	if err == nil {
		fmt.Fprintf(report, "%s: %d sources on a %d-hop chain of %v links (source 0: RTT %v, %d-frame signal delay), last link %.2f Mb/s (%.2fx aggregate mean), backbone %.2fx\n",
			p.Name, c.Sources, c.Hops, c.HopDelay, l.srcs[0].path.RTT(), l.srcs[0].delay, l.capacity/1e6, c.CapFrac, c.Backbone)
		err = writeFile(c.CSV, func(w io.Writer) error { return l.run(ctx, w) })
	}
	if err = errors.Join(err, l.close(ctx)); err != nil {
		return err
	}
	if err := l.report(report); err != nil || c.JSON == "" {
		return err
	}
	return writeFile(c.JSON, func(w io.Writer) error {
		events := l.ring.Events()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"metrics": l.reg.Snapshot(), "total_events": l.ring.Total(),
			"retained_events": len(events), "events": events})
	})
}

// writeFile calls write with the file a -csv or -json names and closes it.
func writeFile(name string, write func(io.Writer) error) error {
	switch name {
	case "":
		return write(io.Discard)
	case "-":
		return write(os.Stdout)
	}
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

// build checks c and sets up every source's path. The loop it returns is
// closed by the caller even on error.
func build(ctx context.Context, p Preset, c Config) (*loop, error) {
	l := &loop{p: p, c: c, reg: metrics.NewRegistry(), ring: metrics.NewEventLog(1024)}
	if err := p.check(c); err != nil {
		return l, err
	}
	var aggregate float64
	for i := 0; i < c.Sources; i++ {
		tr := trace.SyntheticStarWarsFrames(c.Seed+uint64(i), c.Frames)
		l.srcs = append(l.srcs, &source{tr: tr, id: switchfab.MakeVCID(0, uint16(100+i))})
		aggregate += tr.MeanRate()
	}
	l.capacity = aggregate * c.CapFrac
	slotSec := l.srcs[0].tr.SlotSeconds()
	switch {
	case math.IsInf(l.capacity, 0):
		return l, fmt.Errorf("-capfrac %g: link capacity is not finite", c.CapFrac)
	case l.capacity < float64(c.Sources)*c.Delta:
		return l, fmt.Errorf("-capfrac %g: link capacity %.4g b/s cannot set up %d sources at -delta %g b/s",
			c.CapFrac, l.capacity, c.Sources, c.Delta)
	case math.IsInf(l.capacity*c.Backbone, 0):
		return l, fmt.Errorf("-backbone %g: inter-switch capacity is not finite", c.Backbone)
	}
	if p.Cells {
		cellRate := l.capacity / datapath.CellPayloadBits
		l.perFrame = slotSec * cellRate
		l.slotNanos = int64(1e9 / cellRate)
		if l.perFrame < 1 || l.slotNanos < 1 {
			return l, fmt.Errorf("-capfrac %g: link rate %.3g cells/s is not one cell per frame to one per ns", c.CapFrac, cellRate)
		}
		slots := math.Ceil(float64(c.HopDelay) / float64(l.slotNanos))
		if slots > mesh.MaxLinkDelaySlots {
			return l, fmt.Errorf("-hopdelay %v is %.0f cell slots, over %d", c.HopDelay, slots, mesh.MaxLinkDelaySlots)
		}
		l.delaySlots = int64(slots)
	}

	// The chain s1 .. sH -> sink, built from the sink up so each link's far
	// end exists. Delays shape SignalDelaySlots and the cells' links, not
	// wall time.
	m := mesh.New(mesh.WithMetrics(l.reg), mesh.WithHopTimeout(2*time.Second), mesh.WithDelayScale(0))
	names := []string{"sink"}
	l.switches = make([]*switchfab.Switch, c.Hops)
	l.fws = make([]*datapath.Forwarder, c.Hops)
	cellHops := make([]mesh.CellHop, c.Hops)
	err := m.AddHost("sink")
	for k := c.Hops - 1; k >= 0 && err == nil; k-- {
		names = append([]string{"s" + strconv.Itoa(k+1)}, names...)
		capacity := l.capacity
		if k < c.Hops-1 {
			capacity *= c.Backbone
		}
		opts := []switchfab.Option{switchfab.WithMetrics(l.reg), switchfab.WithEventTrace(l.ring)}
		if p.Cells {
			fw := datapath.New(datapath.WithRingCells(ringCells), datapath.WithDepthCells(depthCells), datapath.WithMetrics(l.reg))
			_, err = fw.AddPort(ingress)
			if _, eerr := fw.AddPort(egress); err == nil {
				err = eerr
			}
			l.fws[k] = fw
			cellHops[k] = mesh.CellHop{FW: fw, In: ingress, Out: egress, DelaySlots: l.delaySlots}
			opts = append(opts, switchfab.WithDataPlane(l.fws[k]))
		}
		l.switches[k] = switchfab.New(opts...)
		switch {
		case err != nil:
		case k == 0 && p.UDP:
			err = l.serve(ctx, m, names[0], l.switches[k], capacity)
		default:
			err = m.AddSwitch(names[0], l.switches[k])
		}
		if err == nil {
			err = m.AddLink(names[0], names[1], egress, capacity, c.HopDelay)
		}
	}
	if err == nil && p.Cells {
		l.cp, err = mesh.NewCellPath(cellHops, l.slotNanos)
	}
	if err != nil {
		return l, err
	}

	hp := heuristic.DefaultParams(c.Delta)
	hp.MaxRate = l.capacity
	hp.Metrics = l.reg
	if p.UDP {
		hp.GrantTolerance = 1.0 / 128 // the 16-bit RM rate code
	}
	for i, s := range l.srcs {
		entry := 0
		if p.Staggered {
			entry = i % c.Hops
		}
		hops, err := m.Route(names[entry:]...)
		if err == nil {
			s.path, err = m.SetupPath(ctx, s.id, hops, c.Delta)
		}
		if err != nil {
			return l, err
		}
		hp.SignalDelaySlots = int(math.Ceil(s.path.RTT().Seconds() / slotSec))
		s.delay = hp.SignalDelaySlots
		s.src = core.NewSource(c.Buffer, slotSec, c.Delta)
		if s.ctl, err = heuristic.NewController(s.src, hp, heuristic.NegotiatorFunc(func(cur, want float64) float64 {
			return l.negotiate(ctx, s, cur, want)
		})); err != nil {
			return l, err
		}
	}
	return l, nil
}

// serve puts sw behind a UDP signaling server and registers it as the mesh
// node name. The mesh makes egress ports on in-process switches only, so
// this one is made here.
func (l *loop) serve(ctx context.Context, m *mesh.Mesh, name string, sw *switchfab.Switch, capacity float64) error {
	if err := sw.AddPort(egress, capacity); err != nil {
		return err
	}
	srv, err := netproto.NewServer("127.0.0.1:0", sw, netproto.WithServerMetrics(l.reg))
	if err != nil {
		return err
	}
	l.srv, l.served = srv, make(chan error, 1)
	go func() { l.served <- srv.Serve() }()
	if l.cl, err = netproto.DialContext(ctx, srv.Addr().String(),
		netproto.WithTimeout(time.Second), netproto.WithClientMetrics(l.reg)); err != nil {
		return err
	}
	return m.AddTransport(name, mesh.ClientTransport{Client: l.cl})
}

// negotiate is every source's network: the path's grant, a counter-offer
// included, or the current rate when the path itself failed.
func (l *loop) negotiate(ctx context.Context, s *source, cur, want float64) float64 {
	granted, err := s.path.Renegotiate(ctx, want)
	var offer *mesh.RateError
	if err != nil && !errors.As(err, &offer) {
		return cur
	}
	return granted
}

// run steps every source through its trace, one frame at a time, and writes
// a row at the end of each trace second and after the last frame. With
// cells, the chain drains before the last row, so every column of the CSV
// adds up to the report's totals.
func (l *loop) run(ctx context.Context, out io.Writer) error {
	w := csv.NewWriter(out)
	row := []string{"seconds", "utilization", "jain"}
	if l.p.Cells {
		row = append(row, "offered", "policed", "overflow", "delivered", "queue_cells", "mean_delay_slots")
	}
	err := w.Write(row)
	fps := int(math.Round(l.srcs[0].tr.FPS))
	rates := make([]float64, len(l.srcs))
	var last [4]int64 // offered, policed, overflow, delivered at the last row
	for l.frame = 0; l.frame < l.c.Frames && err == nil; l.frame++ {
		l.step(rates)
		if done := l.frame+1 == l.c.Frames; done && l.p.Cells {
			err = l.drain()
		} else if !done && (l.frame+1)%fps != 0 {
			continue
		}
		reserved, capacity, _ := l.switches[len(l.switches)-1].PortLoad(egress) // made by AddLink or serve
		util, jain := reserved/capacity, stats.JainIndex(rates)
		l.util.Add(util)
		l.jain.Add(jain)
		seconds := math.Round(1000*float64(l.frame+1)/float64(fps)) / 1000
		row = append(row[:0], strconv.FormatFloat(seconds, 'f', -1, 64), strconv.FormatFloat(util, 'f', 4, 64), strconv.FormatFloat(jain, 'f', 4, 64))
		if l.p.Cells {
			st := l.cp.Stats()
			policed, overflow, queued := l.hopStats()
			now := [4]int64{st.Injected, policed, overflow, st.Delivered}
			for j := range now {
				row = append(row, strconv.FormatInt(now[j]-last[j], 10))
			}
			last = now
			row = append(row, strconv.Itoa(queued), strconv.FormatFloat(st.MeanDelaySlots(), 'f', 2, 64))
		}
		err = errors.Join(err, w.Write(row), ctx.Err())
	}
	w.Flush()
	return errors.Join(err, w.Error())
}

// step runs the current frame, leaving every source's next rate in rates.
// With cells, the sources first offer their raw frame bits by the
// drift-free cumulative law, slot by slot, so the cells meet the rates
// granted before the frame, as a source without its buffer would.
func (l *loop) step(rates []float64) {
	f := l.frame
	for ; l.p.Cells && int(float64(l.tick)/l.perFrame) == f; l.tick++ {
		frac := float64(l.tick+1)/l.perFrame - float64(f)
		for _, s := range l.srcs {
			target := int64((s.bits + frac*float64(s.tr.FrameBits[f])) / datapath.CellPayloadBits)
			for ; s.sent < target; s.sent++ {
				l.cp.InjectStamped(s.id, l.tick)
			}
		}
		l.cp.Step(l.tick)
	}
	for i, s := range l.srcs {
		s.bits += float64(s.tr.FrameBits[f])
		rates[i], _, _ = s.ctl.Step(float64(s.tr.FrameBits[f]))
	}
}

// hopStats sums the cells every hop policed and overflowed, and counts the
// cells in its rings and on the links.
func (l *loop) hopStats() (policed, overflow int64, queued int) {
	queued = l.cp.InFlight()
	for k := range l.fws {
		in, out := l.cp.Hop(k)
		ps := in.Stats()
		policed += ps.Policed
		overflow += ps.Overflow
		queued += in.InLen() + out.OutLen()
	}
	return policed, overflow, queued
}

// drain steps the chain with no new cells until it is empty, then holds the
// books: every cell offered is delivered, policed, overflowed or dropped on
// a link.
func (l *loop) drain() error {
	policed, overflow, queued := l.hopStats()
	for limit := l.tick + 1<<24; queued > 0 && l.tick < limit; l.tick++ {
		l.cp.Step(l.tick)
		policed, overflow, queued = l.hopStats()
	}
	st := l.cp.Stats()
	if queued > 0 || st.Injected != st.Delivered+policed+overflow+st.LinkDrops {
		return fmt.Errorf("cell conservation: offered %d != delivered %d + policed %d + overflow %d + link drops %d, %d still queued",
			st.Injected, st.Delivered, policed, overflow, st.LinkDrops, queued)
	}
	return nil
}

// close tears every path down and stops the signaling server.
func (l *loop) close(ctx context.Context) error {
	var errs []error
	for _, s := range l.srcs {
		if s.path != nil {
			errs = append(errs, s.path.Teardown(ctx))
		}
	}
	if l.cl != nil {
		errs = append(errs, l.cl.Close())
	}
	if l.srv != nil {
		errs = append(errs, l.srv.Close())
		if err := <-l.served; !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// report prints the session's counts and the registry's counters.
func (l *loop) report(w io.Writer) error {
	snap := l.reg.Snapshot()
	fmt.Fprintf(w, "session: %d renegotiation attempts, %d failed\n",
		snap.Counters[heuristic.MetricTriggers], snap.Counters[heuristic.MetricFailures])
	fmt.Fprintf(w, "bottleneck utilization: mean %.3f, max %.3f; Jain index: mean %.3f, min %.3f\n",
		l.util.Mean(), l.util.Max(), l.jain.Mean(), l.jain.Min())
	if l.p.Cells {
		st := l.cp.Stats()
		policed, overflow, _ := l.hopStats()
		fmt.Fprintf(w, "offered %d cells, delivered %d (%.2f%% lost: %d policed, %d overflow, %d link drops)\n",
			st.Injected, st.Delivered, 100*float64(st.Injected-st.Delivered)/float64(max(st.Injected, 1)),
			policed, overflow, st.LinkDrops)
		fmt.Fprintf(w, "delay: mean %.1f slots (%.2f ms), max %d slots\n",
			st.MeanDelaySlots(), st.MeanDelaySlots()*float64(l.slotNanos)/1e6, st.MaxDelaySlots)
	}
	// Every counter and histogram the preset's layers registered.
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue")
	for _, name := range sortedKeys(snap.Counters) {
		fmt.Fprintf(tw, "%s\t%d\n", name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		fmt.Fprintf(tw, "%s\t%d obs, mean %.3g\n", name, h.Count, h.Mean())
	}
	fmt.Fprintf(tw, "events\t%d recorded, %d retained\n", l.ring.Total(), len(l.ring.Events()))
	return tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
