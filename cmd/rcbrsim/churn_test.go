package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestChurnRunSmoke exercises the churn subcommand end to end at toy scale —
// both admission modes, with drain, with JSON output — the way a user would
// invoke it.
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
		"-churn", "1000", "-admit", "none"}); err != nil {
		t.Fatalf("admit=none: %v", err)
	}
	if err := dispatch([]string{"churn", "-admit", "bogus"}); err == nil {
		t.Fatal("unknown admission policy accepted")
	}
}
