package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestChurnRunSmoke exercises the churn subcommand end to end at toy scale —
// with and without admission control, with drain, with JSON output — the
// way a user would invoke it.
func TestChurnRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "churn.json")
	err := dispatch([]string{
		"churn", "-vcs", "2000", "-ports", "8", "-workers", "4",
		"-churn", "5000", "-drain", "-json", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		RampedVCs int   `json:"ramped_vcs"`
		Setups    int64 `json:"setups"`
		Teardowns int64 `json:"teardowns"`
	}
	if err := json.Unmarshal(buf, &res); err != nil {
		t.Fatal(err)
	}
	if res.RampedVCs != 2000 {
		t.Errorf("ramped_vcs = %d, want 2000", res.RampedVCs)
	}
	if res.Setups != res.Teardowns {
		t.Errorf("books unbalanced in JSON result: %d setups, %d teardowns", res.Setups, res.Teardowns)
	}

	if err := dispatch([]string{"churn", "-vcs", "500", "-ports", "4",
		"-churn", "1000", "-target", "0"}); err != nil {
		t.Fatalf("-target 0: %v", err)
	}
	// A drain that checks the books: every port back at exactly 0, on ports
	// whose capacity is off the books' lattice.
	if err := dispatch([]string{"churn", "-vcs", "300", "-ports", "3",
		"-portcap", "3.3333333e8", "-churn", "600", "-target", "0", "-drain"}); err != nil {
		t.Fatalf("-target 0 -drain: %v", err)
	}
}

// TestChurnSeedFixesAdmittedRun: with one worker the memory admitter weighs
// history on the run's virtual clock, so two runs of one seed, on ports small
// enough that the admitter refuses calls, write the same JSON but for the
// wall-clock fields.
func TestChurnSeedFixesAdmittedRun(t *testing.T) {
	var runs [2]map[string]any
	for i := range runs {
		out := filepath.Join(t.TempDir(), "churn.json")
		if err := dispatch([]string{"churn", "-vcs", "3000", "-ports", "2", "-portcap", "300e6",
			"-workers", "1", "-churn", "5000", "-seed", "3", "-json", out}); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(bytes.NewReader(buf)).Decode(&runs[i]); err != nil {
			t.Fatal(err)
		}
		for _, wall := range []string{"ramp_wall_ns", "churn_wall_ns", "bytes_per_vc"} {
			delete(runs[i], wall)
		}
	}
	a, _ := json.Marshal(runs[0])
	b, _ := json.Marshal(runs[1])
	if !bytes.Equal(a, b) {
		t.Errorf("two runs of one seed differ:\n%s\n%s", a, b)
	}
	if runs[0]["blocked"] == 0.0 {
		t.Errorf("the admitter refused nothing: %s", a)
	}
}

// TestChurnFlagValidation pins an error naming the flag for every value
// churn cannot run, refused before the run's switch is built. Unchecked,
// -churn -5 ran and skipped the churn phase in silence, and the others
// failed inside the run with an error that named a switch or admitter
// figure instead. A -portcap above what a switch port can book, or too
// small to book, printed the run header before the switch refused it.
func TestChurnFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-vcs", "0"},
		{"-ports", "0"},
		{"-ports", "65537"},
		{"-portcap", "0"},
		{"-portcap", "NaN"},
		{"-portcap", "+Inf"},
		{"-portcap", "1e300"},
		{"-portcap", "1e-4"},
		{"-churn", "-5"},
		{"-target", "2"},
		{"-target", "1"},
		{"-target", "-1"},
		{"-target", "NaN"},
	} {
		// A row wrongly accepted runs: keep it small.
		all := append([]string{"churn", "-vcs", "50", "-ports", "2", "-churn", "50"}, args...)
		if err := dispatch(all); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("rcbrsim churn %s: error %v, want one naming %s", strings.Join(args, " "), err, args[0])
		}
	}
}
