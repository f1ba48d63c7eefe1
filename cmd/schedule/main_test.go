package main

import (
	"strings"
	"testing"
)

// Smoke tests: both modes must run end to end on a short synthetic trace
// and print the schedule summary lines the README documents.

func TestRunOffline(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-mode", "offline", "-frames", "600", "-levels", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace:", "optimal cost:", "schedule: segments=", "replay: lost="} {
		if !strings.Contains(out, want) {
			t.Errorf("offline output missing %q:\n%s", want, out)
		}
	}
}

func TestRunOnlineDump(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-mode", "online", "-frames", "600", "-dump"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"online run:", "rates: mean=", "start(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("online output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBadMode(t *testing.T) {
	if err := run([]string{"-mode", "nonsense", "-frames", "600"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestRunBadInputIsAnError pins that flag values the library would panic on
// come back as errors: each of these used to end in a goroutine dump.
func TestRunBadInputIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"-levels", "0"},
		{"-levels", "-3"},
		{"-buffer", "-5"},
		{"-buffer", "NaN"},
		{"-buffer", "+Inf"},
		{"-mode", "online", "-buffer", "0"},
	} {
		args = append([]string{"-frames", "240"}, args...)
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("schedule %s: accepted", strings.Join(args, " "))
		}
	}
}
