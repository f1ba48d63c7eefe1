package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestDatapathRunSmoke exercises the datapath preset end to end at toy scale
// the way a user would invoke it, and checks the CSV it emits is well-formed
// and conservative: delivered cells never exceed offered. (The run itself
// fails unless every offered cell is delivered or counted dropped.) The
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
		header := rows[0]
		if got := header[0]; got != "seconds" {
			t.Fatalf("header starts with %q", got)
		}
		if got := header[len(header)-1]; got != "mean_delay_slots" {
			t.Fatalf("header ends with %q, want mean_delay_slots", got)
		}
		col := map[string]int{}
		for i, name := range header {
			col[name] = i
		}
		var offered, delivered int64
		for _, r := range rows[1:] {
			if len(r) != len(header) {
				t.Fatalf("row has %d columns, header %d: %v", len(r), len(header), r)
			}
			off, err := strconv.ParseInt(r[col["offered"]], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			del, err := strconv.ParseInt(r[col["delivered"]], 10, 64)
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
// is an error naming the flag rather than silently replaced — -n 0 used to
// run with one source.
func TestDatapathRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-hops", "0"},
		{"-hopdelay", "-1ms"},
		// Each link's delay line is allocated before the replay starts, one
		// cell per slot of delay: 1e10 slots of it used to be an
		// out-of-memory kill, not an error. A minute is 2.8e8 slots of a
		// link 1000 times the sources' mean.
		{"-hopdelay", "1m", "-capfrac", "1000"},
		{"-hopdelay", "10000h"},
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
