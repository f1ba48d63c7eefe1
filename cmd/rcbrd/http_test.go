package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rcbr/internal/metrics"
	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
)

// TestEndpointsShowSignalingActivity is the daemon's acceptance test: a
// scripted setup -> renegotiate -> teardown sequence over the real UDP
// signaling path must be visible in /metrics (counters increment, the port
// gauge returns to zero) and /vcs (VC table while up, event trace after).
func TestEndpointsShowSignalingActivity(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(64)
	sw := switchfab.New(switchfab.WithMetrics(reg), switchfab.WithEventTrace(ring))
	if err := addPorts(sw, "1:10e6"); err != nil {
		t.Fatal(err)
	}
	srv, err := netproto.NewServer("127.0.0.1:0", sw, netproto.WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck

	web := httptest.NewServer(newHTTPHandler(reg, sw, ring, false))
	defer web.Close()

	ctx := context.Background()
	cl, err := netproto.DialContext(ctx, srv.Addr().String(), netproto.WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Setup(ctx, 7, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Renegotiate(ctx, 7, 1e6, 2e6); err != nil || !ok {
		t.Fatalf("renegotiate: ok=%v err=%v", ok, err)
	}

	// Mid-session: /vcs lists the VC at its renegotiated rate, /metrics shows
	// the port's reserved gauge carrying it.
	// The RM cell's 16-bit rate encoding quantizes the renegotiated rate, so
	// compare within its ~0.4% resolution.
	near := func(got, want float64) bool { return math.Abs(got-want)/want <= 1.0/256 }
	var vcs vcsWire
	getJSON(t, web.URL+"/vcs", &vcs)
	if len(vcs.VCs) != 1 || vcs.VCs[0].VCI != 7 || !near(vcs.VCs[0].Rate, 2e6) {
		t.Fatalf("/vcs mid-session: %+v", vcs.VCs)
	}
	var snap metrics.Snapshot
	getJSON(t, web.URL+"/metrics", &snap)
	if got := snap.Gauges[switchfab.PortReservedGauge(1)]; !near(got, 2e6) {
		t.Fatalf("reserved gauge mid-session = %v, want ~2e6", got)
	}

	if err := cl.Teardown(ctx, 7); err != nil {
		t.Fatal(err)
	}

	getJSON(t, web.URL+"/metrics", &snap)
	for name, want := range map[string]int64{
		switchfab.MetricSetups:    1,
		switchfab.MetricRenegs:    1,
		switchfab.MetricGrants:    1,
		switchfab.MetricTeardowns: 1,
		netproto.MetricServerRx:   3,
		netproto.MetricServerTx:   3,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges[switchfab.PortReservedGauge(1)]; got != 0 {
		t.Errorf("reserved gauge after teardown = %v, want 0", got)
	}
	if got := snap.Gauges[switchfab.PortCapacityGauge(1)]; got != 10e6 {
		t.Errorf("capacity gauge = %v, want 10e6", got)
	}
	if snap.Histograms[switchfab.MetricRenegLatency].Count != 1 {
		t.Errorf("latency histogram count = %d, want 1",
			snap.Histograms[switchfab.MetricRenegLatency].Count)
	}

	// The event trace tells the VC's life story in order.
	getJSON(t, web.URL+"/vcs", &vcs)
	if len(vcs.VCs) != 0 {
		t.Errorf("/vcs after teardown: %+v", vcs.VCs)
	}
	if vcs.TotalEvents != 3 {
		t.Errorf("total events = %d, want 3", vcs.TotalEvents)
	}
	var kinds []string
	for _, ev := range vcs.Events {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"setup", "renegotiate-grant", "teardown"}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
}

// TestPprofGating: /debug/pprof/ is present only when the -pprof flag asked
// for it.
func TestPprofGating(t *testing.T) {
	sw := switchfab.New()
	get := func(h http.Handler) int {
		t.Helper()
		web := httptest.NewServer(h)
		defer web.Close()
		resp, err := http.Get(web.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(newHTTPHandler(nil, sw, nil, false)); code != http.StatusNotFound {
		t.Errorf("pprof off: GET /debug/pprof/ = %d, want 404", code)
	}
	if code := get(newHTTPHandler(nil, sw, nil, true)); code != http.StatusOK {
		t.Errorf("pprof on: GET /debug/pprof/ = %d, want 200", code)
	}
}

// TestVCsPagination drives /vcs through its paging parameters: the default
// page is bounded (a million-VC daemon must not serialize its whole table to
// a bare GET), explicit limit/offset walk the table exactly once in (VPI,
// VCI) order, and malformed or abusive parameters are rejected.
func TestVCsPagination(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	const n = 600 // more than the default page
	for i := 0; i < n; i++ {
		if err := sw.SetupID(switchfab.VCID(i), 1, 1e3); err != nil {
			t.Fatal(err)
		}
	}
	web := httptest.NewServer(newHTTPHandler(nil, sw, nil, false))
	defer web.Close()

	var page vcsWire
	getJSON(t, web.URL+"/vcs", &page)
	if len(page.VCs) != defaultVCsLimit || page.TotalVCs != n || page.Limit != defaultVCsLimit {
		t.Fatalf("default page: %d entries, total %d, limit %d", len(page.VCs), page.TotalVCs, page.Limit)
	}

	var all []switchfab.VCInfo
	for offset := 0; offset < n; {
		getJSON(t, fmt.Sprintf("%s/vcs?limit=250&offset=%d", web.URL, offset), &page)
		if page.TotalVCs != n || page.Offset != offset {
			t.Fatalf("page at %d: total %d offset %d", offset, page.TotalVCs, page.Offset)
		}
		if len(page.VCs) == 0 {
			t.Fatalf("empty page at offset %d", offset)
		}
		all = append(all, page.VCs...)
		offset += len(page.VCs)
	}
	if len(all) != n {
		t.Fatalf("paged %d entries, want %d", len(all), n)
	}
	for i, vc := range all {
		if int(vc.VCI) != i || vc.Rate != 1e3 {
			t.Fatalf("entry %d = %+v", i, vc)
		}
	}

	getJSON(t, web.URL+"/vcs?limit=0", &page)
	if len(page.VCs) != 0 || page.TotalVCs != n {
		t.Fatalf("limit=0 count query: %d entries, total %d", len(page.VCs), page.TotalVCs)
	}

	for _, q := range []string{"limit=abc", "limit=-1", "limit=100000", "offset=-2", "offset=x"} {
		resp, err := http.Get(web.URL + "/vcs?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// vcsWire mirrors the /vcs response schema as an HTTP client decodes it
// (events arrive with string kinds, so the production structs don't apply).
type vcsWire struct {
	VCs         []switchfab.VCInfo `json:"vcs"`
	TotalVCs    int                `json:"total_vcs"`
	Offset      int                `json:"offset"`
	Limit       int                `json:"limit"`
	TotalEvents uint64             `json:"total_events"`
	Events      []struct {
		Seq  uint64 `json:"seq"`
		Kind string `json:"kind"`
		VCI  uint16 `json:"vci"`
	} `json:"events"`
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
