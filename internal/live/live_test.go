package live

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/heuristic"
)

// TestPresetsHoldOneRate runs each preset at toy size at its default
// granularity. After every frame, every path's rate is every hop's switch's
// and, with cells, every hop's shaper's; before teardown it is also every
// source's, except a source whose path moved within its SignalDelaySlots
// of the end, whose grant is still crossing the path.
//
// A switch behind the wire books the exact sum of the rate deltas it was
// sent and replies with the 16-bit RM rate code of that booking: once the
// path has moved, it holds that code's rate.
func TestPresetsHoldOneRate(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Preset
		edit func(*Config)
	}{
		{"signal", Signal, nil},
		{"signal/3hops", Signal, func(c *Config) { c.Hops = 3 }},
		{"topology", Topology, nil},
		{"topology/satellite", Topology, func(c *Config) { c.HopDelay = 275 * time.Millisecond }},
		{"datapath", Datapath, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			c := tc.p.Defaults
			c.Frames = 480
			if tc.edit != nil {
				tc.edit(&c)
			}
			l, err := build(ctx, tc.p, c)
			defer func() {
				if err := l.close(ctx); err != nil {
					t.Error(err)
				}
			}()
			if err != nil {
				t.Fatal(err)
			}
			// The frame of each path's latest move, or -1.
			moved, held := make([]int, len(l.srcs)), make([]float64, len(l.srcs))
			for i, s := range l.srcs {
				moved[i], held[i] = -1, s.path.Rate()
			}
			// holdNetwork holds every hop on source i's path, which crosses
			// the last Hops() switches, to the path's rate.
			holdNetwork := func(i int, s *source) {
				rate := s.path.Rate()
				for k := c.Hops - s.path.Hops(); k < c.Hops; k++ {
					vc, err := l.switches[k].VC(s.id)
					books := err == nil && vc.Rate == rate
					if k == 0 && tc.p.UDP && moved[i] >= 0 {
						books = err == nil && wireRate(t, vc.Rate) == rate
					}
					if !books {
						t.Fatalf("frame %d, vc %s: hop %d books %g (%v), path holds %g", l.frame, s.id, k, vc.Rate, err, rate)
					}
					if tc.p.Cells {
						if st, ok := l.fws[k].VCStats(s.id); !ok || st.Rate != rate {
							t.Fatalf("frame %d, vc %s: hop %d shapes at %g (%v), path holds %g", l.frame, s.id, k, st.Rate, ok, rate)
						}
					}
				}
			}
			rates := make([]float64, len(l.srcs))
			for l.frame = 0; l.frame < c.Frames; l.frame++ {
				l.step(rates)
				for i, s := range l.srcs {
					if r := s.path.Rate(); r != held[i] {
						moved[i], held[i] = l.frame, r
					}
					holdNetwork(i, s)
				}
			}
			if tc.p.Cells {
				if err := l.drain(); err != nil {
					t.Fatal(err)
				}
			}
			if l.reg.Snapshot().Counters[heuristic.MetricTriggers] == 0 {
				t.Fatal("no source renegotiated")
			}
			inFlight := 0
			for i, s := range l.srcs {
				holdNetwork(i, s)
				if moved[i]+s.delay >= c.Frames {
					inFlight++
				} else if got, rate := s.src.Rate(), s.path.Rate(); got != rate {
					t.Errorf("vc %s: source holds %g, path %g", s.id, got, rate)
				}
			}
			if inFlight == len(l.srcs) {
				t.Errorf("every source still had a grant in flight: no source was held")
			}
		})
	}
}

// wireRate is the rate of the 16-bit RM rate code a switch replies with.
func wireRate(t *testing.T, rate float64) float64 {
	t.Helper()
	code, err := cell.EncodeRate16(rate)
	if err != nil {
		t.Fatal(err)
	}
	return cell.DecodeRate16(code)
}

// TestShortRunWritesARow: a run shorter than a trace second still writes a
// row, and with cells the CSV's columns add up to the report's totals, the
// cells drained after the last frame included.
func TestShortRunWritesARow(t *testing.T) {
	c := Datapath.Defaults
	c.Frames = 10
	c.CSV = filepath.Join(t.TempDir(), "datapath.csv")
	var report bytes.Buffer
	if err := Run(context.Background(), Datapath, c, &report); err != nil {
		t.Fatal(err)
	}
	var offered, delivered, policed, overflow, drops int64
	var lost float64
	for _, line := range strings.Split(report.String(), "\n") {
		if strings.HasPrefix(line, "offered ") {
			fmt.Sscanf(line, "offered %d cells, delivered %d (%f%% lost: %d policed, %d overflow, %d link drops)",
				&offered, &delivered, &lost, &policed, &overflow, &drops)
		}
	}
	if offered == 0 || offered != delivered+policed+overflow+drops {
		t.Fatalf("the report's cell counts do not add up:\n%s", report.String())
	}
	f, err := os.Open(c.CSV)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("CSV has %d rows, want the header and one row: %v", len(rows), rows)
	}
	if got := rows[1][0]; got != "0.417" {
		t.Errorf("the row is at %s seconds, want 0.417", got)
	}
	for j, want := range map[int]int64{3: offered, 4: policed, 5: overflow, 6: delivered} {
		if got, err := strconv.ParseInt(rows[1][j], 10, 64); err != nil || got != want {
			t.Errorf("column %s is %s, the report says %d", rows[0][j], rows[1][j], want)
		}
	}
	if drops != 0 {
		t.Errorf("%d link drops on a run without link loss", drops)
	}
}
