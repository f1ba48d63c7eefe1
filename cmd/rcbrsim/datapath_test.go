package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestDatapathRunSmoke exercises the datapath subcommand end to end at toy
// scale the way a user would invoke it, and checks the CSV it emits is
// well-formed and conservative: delivered cells never exceed offered. The
// subtest keeps the name it had while -cores chose between this replay on
// one goroutine and one on port groups; the one-goroutine replay is now the
// only driving mode.
func TestDatapathRunSmoke(t *testing.T) {
	t.Run("cores=1", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "datapath.csv")
		err := dispatch([]string{"datapath", "-frames", "240", "-n", "2", "-hops", "2", "-csv", out})
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 2 {
			t.Fatalf("CSV has %d rows, want header plus data", len(rows))
		}
		if got := rows[0][0]; got != "seconds" {
			t.Fatalf("header starts with %q", got)
		}
		if got := rows[0][len(rows[0])-1]; got != "mean_delay_slots" {
			t.Fatalf("header ends with %q, want mean_delay_slots", got)
		}
		var offered, delivered int64
		for _, r := range rows[1:] {
			if len(r) != 7 {
				t.Fatalf("row has %d columns: %v", len(r), r)
			}
			off, err := strconv.ParseInt(r[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			del, err := strconv.ParseInt(r[4], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			offered += off
			delivered += del
		}
		if offered == 0 {
			t.Fatal("replay offered no cells")
		}
		if delivered > offered {
			t.Fatalf("delivered %d > offered %d", delivered, offered)
		}
	})
}

// TestDatapathRunFlagValidation: a flag value is input, so one out of range
// is an error naming the flag rather than silently replaced — -depth 0 used
// to run at the forwarder's 32-cell default, -n 0 with one source, and
// -ring 0 at 1024 until a drain limit computed from the 0 gave up.
func TestDatapathRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-hops", "0"},
		{"-hopdelay", "-1"},
		// Each link's delay line is allocated before the replay starts: 1e10
		// slots of it used to be an out-of-memory kill, not an error.
		{"-hopdelay", "10000000000"},
		{"-ring", "0"},
		// A ring's storage grows under load, so a capacity is a promise:
		// above datapath.MaxRingCells it is refused up front, and above
		// 1<<62 it used to hang the rounding loop.
		{"-ring", "1048577"},
		{"-ring", "4611686018427387905"},
		{"-depth", "0"},
		{"-n", "0"},
	} {
		// A row that is wrongly accepted runs a replay: keep its CSV out of
		// the working directory.
		csvOut := filepath.Join(t.TempDir(), "datapath.csv")
		err := dispatch(append([]string{"datapath", "-frames", "240", "-csv", csvOut}, args...))
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("datapath %v: error %v, want one naming %s", args, err, args[0])
		}
	}
}
