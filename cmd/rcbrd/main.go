// Command rcbrd runs an RCBR switch daemon: a software switch (package
// switchfab) exposed over the UDP signaling protocol (package netproto).
// Sources set up VCs, renegotiate with RM cells, and tear down.
//
// Usage:
//
//	rcbrd [-listen 127.0.0.1:4059] [-ports "1:155e6,2:155e6"] [-v]
//	      [-http 127.0.0.1:8059] [-events 256] [-workers 4] [-queue 256] [-pprof]
//
// -workers sets the number of concurrent signaling handlers and -queue the
// depth of the datagram queue feeding them; when the queue is full further
// datagrams are dropped (and counted on signal.server.dropped_datagrams) so
// a signaling burst sheds load instead of growing memory without bound.
// -workers, -queue and -events below 1 are refused, not replaced.
//
// Each port spec is id:capacity with capacity in bits/second. With -http, the
// daemon additionally serves GET /metrics (the JSON metrics snapshot: per-port
// reserved/capacity gauges, setup/renegotiation/teardown counters, latency
// histograms) and GET /vcs (the established-VC table plus the last -events
// per-VC lifecycle events). Adding -pprof mounts the Go runtime profiles
// under /debug/pprof/ on the same listener for live profiling.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"rcbr/internal/metrics"
	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:4059", "UDP listen address")
		ports    = flag.String("ports", "1:155e6", "comma-separated port specs id:capacity")
		verbose  = flag.Bool("v", false, "log signaling errors")
		httpAddr = flag.String("http", "", "serve /metrics and /vcs on this TCP address (empty disables)")
		events   = flag.Int("events", 256, "per-VC lifecycle events retained for /vcs")
		pprofOn  = flag.Bool("pprof", false, "expose /debug/pprof/ on the -http listener")
		workers  = flag.Int("workers", netproto.DefaultWorkers, "concurrent signaling handlers")
		queue    = flag.Int("queue", netproto.DefaultQueue, "pending-datagram queue depth (overflow is dropped)")
	)
	flag.Parse()
	for _, name := range []string{"events", "workers", "queue"} {
		if v := flag.Lookup(name).Value.(flag.Getter).Get().(int); v < 1 {
			fatal(fmt.Errorf("-%s must be at least 1, got %d", name, v))
		}
	}

	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(*events)
	sw := switchfab.New(switchfab.WithMetrics(reg), switchfab.WithEventTrace(ring))
	if err := addPorts(sw, *ports); err != nil {
		fatal(err)
	}

	var logger *log.Logger
	if *verbose {
		logger = log.New(os.Stderr, "rcbrd ", log.LstdFlags|log.Lmicroseconds)
	}
	srv, err := netproto.NewServer(*listen, sw,
		netproto.WithLogger(logger), netproto.WithServerMetrics(reg),
		netproto.WithWorkers(*workers), netproto.WithQueue(*queue))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rcbrd: listening on %s\n", srv.Addr())

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rcbrd: http on %s\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, newHTTPHandler(reg, sw, ring, *pprofOn)); err != nil {
				if logger != nil {
					logger.Printf("http: %v", err)
				}
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		srv.Close()
		<-done
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
	st := sw.Stats()
	fmt.Printf("rcbrd: setups=%d rejects=%d teardowns=%d renegotiations=%d denials=%d resyncs=%d\n",
		st.Setups, st.SetupRejects, st.Teardowns, st.Renegotiations, st.Denials, st.Resyncs)
}

func addPorts(sw *switchfab.Switch, spec string) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad port spec %q (want id:capacity)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return fmt.Errorf("bad port id %q", kv[0])
		}
		capacity, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return fmt.Errorf("bad capacity %q", kv[1])
		}
		if err := sw.AddPort(id, capacity); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rcbrd:", err)
	os.Exit(1)
}
