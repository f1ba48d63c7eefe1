package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestDatapathRunSmoke exercises the datapath subcommand end to end at toy
// scale the way a user would invoke it — single-core and with port-group
// goroutines — and checks the CSV it emits is well-formed and
// conservative: delivered cells never exceed offered.
func TestDatapathRunSmoke(t *testing.T) {
	for _, cores := range []int{1, 2} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "datapath.csv")
			err := datapathRun([]string{
				"-frames", "240", "-n", "2", "-hops", "2",
				"-cores", strconv.Itoa(cores), "-csv", out,
			})
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
			if got := rows[0][7]; got != "cores" {
				t.Fatalf("header column 8 is %q, want cores", got)
			}
			var offered, delivered int64
			for _, r := range rows[1:] {
				if len(r) != 8 {
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
				if r[7] != strconv.Itoa(cores) {
					t.Fatalf("cores column %q, want %d", r[7], cores)
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
}

func TestDatapathRunFlagValidation(t *testing.T) {
	if err := datapathRun([]string{"-hops", "0"}); err == nil {
		t.Fatal("zero hops accepted")
	}
	if err := datapathRun([]string{"-hopdelay", "-1"}); err == nil {
		t.Fatal("negative hop delay accepted")
	}
	// Each link's delay line is allocated before the replay starts: 1e10
	// slots of it used to be an out-of-memory kill, not an error.
	if err := datapathRun([]string{"-hopdelay", "10000000000"}); err == nil {
		t.Fatal("-hopdelay of 1e10 slots accepted")
	}
	if err := datapathRun([]string{"-cores", "0"}); err == nil {
		t.Fatal("zero cores accepted")
	}
}
