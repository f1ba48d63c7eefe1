package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rcbr/internal/datapath"
	"rcbr/internal/metrics"
	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
)

// signal-rtt: the control path alone. A netproto.Server (2 workers) on
// loopback UDP fronts a 4-port switch with a data plane attached and the
// cell path idle; 2 closed-loop clients (one socket and one goroutine
// each) cycle Renegotiate over their half of the VCs. Closed loop because
// an RCBR source waits for its grant before it asks again.
const (
	rttClients   = 2
	rttWorkers   = 2
	rttPortCap   = 1e12
	spanRTT      = "netproto.renegotiate"
	wireRateStep = 1 << 16 // 65,536 b/s: every multiple up to 1023 survives the 16-bit RM rate exactly
)

// wireLevel is the k-th rate level of signal-rtt. The levels and all their
// differences are small multiples of 2^16, so neither the delta the client
// sends nor the absolute rate the switch replies is rounded by the RM
// cell's 16-bit rate field, and source, switch and shaper can be compared
// exactly.
func wireLevel(k int) float64 { return float64(k+1) * wireRateStep }

// signalNode is a switch with a data plane behind a UDP signaling server.
type signalNode struct {
	reg  *metrics.Registry
	fw   *datapath.Forwarder
	sw   *switchfab.Switch
	srv  *netproto.Server
	done chan error
}

// newSignalNode builds the switch with the given egress ports (each also a
// forwarder port) and starts serving on loopback.
func newSignalNode(reg *metrics.Registry, capacity float64, ports ...int) (*signalNode, error) {
	n := &signalNode{reg: reg, fw: datapath.New(datapath.WithMetrics(reg)), done: make(chan error, 1)}
	n.sw = switchfab.New(switchfab.WithDataPlane(n.fw), switchfab.WithMetrics(reg))
	for _, p := range ports {
		if _, err := n.fw.AddPort(p); err != nil {
			return nil, err
		}
		if err := n.sw.AddPort(p, capacity); err != nil {
			return nil, err
		}
	}
	srv, err := netproto.NewServer("127.0.0.1:0", n.sw,
		netproto.WithWorkers(rttWorkers), netproto.WithServerMetrics(reg))
	if err != nil {
		return nil, err
	}
	n.srv = srv
	go func() { n.done <- srv.Serve() }()
	return n, nil
}

// dial connects one signaling client to the node.
func (n *signalNode) dial() (*netproto.Client, error) {
	return netproto.DialContext(context.Background(), n.srv.Addr().String(), netproto.WithClientMetrics(n.reg))
}

// close stops the server and waits for Serve to return.
func (n *signalNode) close() error {
	err := n.srv.Close()
	if serr := <-n.done; !errors.Is(serr, net.ErrClosed) && err == nil {
		err = serr
	}
	return err
}

type rttSystem struct {
	node    *signalNode
	clients [rttClients]*netproto.Client
	// Per client: its VCs and the level each source believes it holds.
	// A client goroutine touches only its own slices.
	vcis   [rttClients][]uint16
	levels [rttClients][]int
	reqs   int64
}

func buildSignalRTT(_ uint64, sc scale, inputsDone func()) (system, error) {
	inputsDone() // the load is generated as it is sent
	node, err := newSignalNode(metrics.NewRegistry(), rttPortCap, 0, 1, 2, 3)
	if err != nil {
		return nil, err
	}
	r := &rttSystem{node: node}
	for v := 1; v <= sc.rttVCs; v++ {
		if err := node.sw.Setup(uint16(v), v%cellPorts, wireLevel(0)); err != nil {
			return nil, err
		}
		r.vcis[v%rttClients] = append(r.vcis[v%rttClients], uint16(v))
		r.levels[v%rttClients] = append(r.levels[v%rttClients], 0)
	}
	for i := range r.clients {
		if r.clients[i], err = node.dial(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *rttSystem) vcs() int { return len(r.vcis[0]) + len(r.vcis[1]) }

// rttLane is one client goroutine's share of a pass.
type rttLane struct {
	lat    []int64 // request to reply
	iterNs []int64 // reply to reply: what the closed loop's rate is made of
	failed int64
}

// drive is one closed-loop client: it walks its VCs, moving VC j by 1 + j%6
// levels (mod 7, so never to the level it holds), until the deadline.
func (r *rttSystem) drive(ctx context.Context, i int, deadline time.Time, ln *rttLane, tr *tracer) {
	cl, vcis, levels := r.clients[i], r.vcis[i], r.levels[i]
	prev := time.Now()
	for {
		for j, vci := range vcis {
			next := (levels[j] + 1 + j%(rateLevelCount-1)) % rateLevelCount
			cur, target := wireLevel(levels[j]), wireLevel(next)
			req := r.reqs + int64(i) + int64(len(ln.lat))*rttClients
			t0 := time.Now()
			s := tr.begin(spanRTT, 0, req)
			granted, ok, err := cl.Renegotiate(ctx, vci, cur, target)
			tr.end(s)
			now := time.Now()
			ln.lat = append(ln.lat, int64(now.Sub(t0)))
			ln.iterNs = append(ln.iterNs, int64(now.Sub(prev)))
			prev = now
			if err != nil || !ok || granted != target {
				ln.failed++ // every level fits: a denial, an error or a rounded grant is unexpected
			} else {
				levels[j] = next
			}
			if now.After(deadline) {
				return
			}
		}
	}
}

func (r *rttSystem) pass(d time.Duration, ts *traceSet) passStats {
	start := time.Now()
	deadline := start.Add(d)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	lanes := make([]rttLane, rttClients)
	for i := range lanes {
		lanes[i] = rttLane{lat: make([]int64, 0, 1<<19), iterNs: make([]int64, 0, 1<<19)}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.drive(ctx, i, deadline, &lanes[i], ts.lane())
		}(i)
	}
	wg.Wait()
	var st passStats
	for i := range lanes {
		st.rate = st.rate.plus(blockThroughput(lanes[i].iterNs, 1))
		st.lat = append(st.lat, lanes[i].lat...)
		st.failed += lanes[i].failed
	}
	st.attempted = int64(len(st.lat))
	r.reqs += st.attempted
	return st
}

func (r *rttSystem) layer(ref, traced passStats, spans []span, m *metricSet) []budget {
	sorted := sortedCopy(traced.lat)
	m.setTail("netproto.rtt_p99_us", sorted)
	// What is left of a round trip after the bare syscall floor and the
	// switch's own decision: queueing and the worker hand-off, the part a
	// netproto change can move.
	p50 := quantile(sorted, 0.5) / 1e3
	m.setTimed("netproto.overhead_p50_us",
		p50-m.values["netproto.udp_echo_p50_us"]-m.values["switchfab.handle_rm_ns"]/1e3, len(sorted))
	snap := r.node.reg.Snapshot()
	m.set("netproto.retries", float64(snap.Counters[netproto.MetricClientRetries]))
	m.set("netproto.server_drops", float64(snap.Counters[netproto.MetricServerDropped]))
	if st := r.node.sw.Stats(); st.Renegotiations > 0 {
		m.set("switchfab.denied_share", float64(st.Denials)/float64(st.Renegotiations))
	}
	// One request is one span, so the budget has one part: it shows what
	// timing a request through the tracer adds to the untraced median.
	return []budget{newBudget(selfTimes(spans), "reneg", int64(len(traced.lat)), quantile(sortedCopy(ref.lat), 0.5))}
}

func (r *rttSystem) finish() []string {
	var bad []string
	for _, cl := range r.clients {
		if err := cl.Close(); err != nil {
			bad = append(bad, fmt.Sprintf("client close: %v", err))
		}
	}
	if err := r.node.close(); err != nil {
		bad = append(bad, fmt.Sprintf("server close: %v", err))
	}
	believed := make(map[uint16]float64, r.vcs())
	for i := range r.vcis {
		for j, vci := range r.vcis[i] {
			believed[vci] = wireLevel(r.levels[i][j])
		}
	}
	return append(bad, checkBooks(r.node.sw, r.node.fw, cellPorts, func(id switchfab.VCID) (float64, bool) {
		rate, ok := believed[id.VCI()]
		return rate, ok
	})...)
}
