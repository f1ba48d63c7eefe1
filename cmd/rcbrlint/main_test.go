package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"slices"
	"strings"
	"testing"

	"rcbr/internal/analysis"
)

// TestRunListNamesAllAnalyzers pins the suite exactly: adding a fifth
// analyzer (or dropping one) is a conscious edit here, beside DESIGN §9's
// table of what each holds that no test can.
func TestRunListNamesAllAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"lockscope", "metricname", "sentinelcmp", "zeroalloc"}
	if !slices.Equal(got, want) {
		t.Errorf("-list names %v, want exactly %v", got, want)
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-no-such-flag) = %d, want 2", code)
	}
}

func TestWriteJSON(t *testing.T) {
	diags := []analysis.Diagnostic{
		{
			Pos:      token.Position{Filename: "/repo/internal/switchfab/switch.go", Line: 7, Column: 3},
			Analyzer: "lockscope",
			Message:  "mutex held across a blocking call",
		},
		{
			Pos:      token.Position{Filename: "elsewhere/file.go", Line: 1, Column: 1},
			Analyzer: "zeroalloc",
			Message:  "make allocates",
		},
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, "/repo", diags); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	var got []jsonDiag
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	want := []jsonDiag{
		{File: "internal/switchfab/switch.go", Line: 7, Col: 3, Analyzer: "lockscope", Message: "mutex held across a blocking call"},
		{File: "elsewhere/file.go", Line: 1, Col: 1, Analyzer: "zeroalloc", Message: "make allocates"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d: %s", len(got), len(want), buf.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWriteJSONEmptyIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, "/repo", nil); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty report = %q, want []", got)
	}
}
