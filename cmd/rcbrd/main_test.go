package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
)

func TestAddPorts(t *testing.T) {
	sw := switchfab.New()
	if err := addPorts(sw, "1:155e6, 2:622e6,"); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int]float64{1: 155e6, 2: 622e6} {
		_, capacity, err := sw.PortLoad(id)
		if err != nil || capacity != want {
			t.Fatalf("port %d: %v, %v", id, capacity, err)
		}
	}
}

func TestAddPortsErrors(t *testing.T) {
	for name, spec := range map[string]string{
		"no colon":  "1",
		"bad id":    "x:100",
		"bad cap":   "1:fast",
		"zero cap":  "1:0",
		"duplicate": "1:10,1:20",
	} {
		sw := switchfab.New()
		if err := addPorts(sw, spec); err == nil {
			t.Errorf("%s (%q): accepted", name, spec)
		}
	}
}

// TestSIGTERMDrainsInFlightAndReports runs the built daemon as a process:
// SIGTERM with four sources renegotiating eight VCs through it must end in
// exit status 0 within 2 s and the final statistics line, whose
// renegotiation count covers every reply a source received — what was
// answered was decided before the books were read — and no client call may
// hang on the vanished server: each returns a reply or an error.
//
// The same binary first refuses every size below 1 with exit status 1 and
// the flag's name, instead of silently running a default in its place.
func TestSIGTERMDrainsInFlightAndReports(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool to build rcbrd with: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "rcbrd")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, bad := range [][2]string{{"-workers", "0"}, {"-queue", "0"}, {"-events", "0"}, {"-workers", "-1"}} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second) // a daemon that accepted it runs on
		out, err := exec.CommandContext(ctx, bin, "-listen", "127.0.0.1:0", bad[0], bad[1]).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), bad[0]+" must be at least 1") {
			t.Errorf("rcbrd %s %s: %v, output %q; want exit status 1 naming the flag", bad[0], bad[1], err, out)
		}
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-ports", "1:1e9")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot run a built binary here: %v", err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) //nolint:errcheck // already exited on every passing path
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatalf("rcbrd printed nothing: %v", lines.Err())
	}
	addr, ok := strings.CutPrefix(lines.Text(), "rcbrd: listening on ")
	if !ok {
		t.Fatalf("first stdout line %q names no address", lines.Text())
	}

	ctx := context.Background()
	cl, err := netproto.DialContext(ctx, addr, netproto.WithTimeout(250*time.Millisecond), netproto.WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const sources, perSource, warmReplies = 4, 2, 50
	for vci := uint16(1); vci <= sources*perSource; vci++ {
		if err := cl.Setup(ctx, vci, 1, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	var replies atomic.Int64
	var wg sync.WaitGroup
	warm := make(chan struct{}, sources) // one send per source
	for s := 0; s < sources; s++ {
		wg.Add(1)
		go func(first uint16) {
			defer wg.Done()
			rate := [perSource]float64{1e6, 1e6}
			for n := 0; ; n++ {
				k := n % perSource
				granted, _, err := cl.Renegotiate(ctx, first+uint16(k), rate[k], 3e6-rate[k])
				if err != nil {
					// The server is gone: the retries ran out, or the
					// kernel reported its closed port on the socket.
					if !errors.Is(err, netproto.ErrTimeout) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, syscall.ECONNREFUSED) {
						t.Errorf("source of VC %d: %v", first, err)
					}
					if n <= warmReplies {
						warm <- struct{}{}
					}
					return
				}
				rate[k] = granted
				if replies.Add(1); n == warmReplies {
					warm <- struct{}{}
				}
			}
		}(uint16(1 + s*perSource))
	}
	for s := 0; s < sources; s++ {
		<-warm
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	var final string
	go func() {
		for lines.Scan() {
			final = lines.Text()
		}
		exited <- cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("rcbrd after SIGTERM: %v, want exit status 0", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("rcbrd still running 2 s after SIGTERM")
	}
	wg.Wait() // a hung client call fails the test by its timeout
	var setups, rejects, teardowns, served int64
	if _, err := fmt.Sscanf(final, "rcbrd: setups=%d rejects=%d teardowns=%d renegotiations=%d",
		&setups, &rejects, &teardowns, &served); err != nil || setups != 8 {
		t.Fatalf("final stdout line %q is not the statistics line of 8 setups (%v)", final, err)
	}
	if served < replies.Load() {
		t.Errorf("rcbrd reports %d renegotiations, its clients received %d replies", served, replies.Load())
	}
}
