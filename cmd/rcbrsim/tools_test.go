package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs one command line through the dispatcher and returns
// what it printed on stdout.
func captureStdout(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := dispatch(args)
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// mustContain fails the test for each want the output of args lacks.
func mustContain(t *testing.T, out string, args []string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("rcbrsim %s: output missing %q:\n%s", strings.Join(args, " "), want, out)
		}
	}
}

// Both schedule modes run end to end on a short synthetic trace and print
// the summary lines the README documents.
func TestScheduleOffline(t *testing.T) {
	args := []string{"schedule", "-mode", "offline", "-frames", "600", "-levels", "8"}
	out, err := captureStdout(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out, args, "trace:", "optimal cost:", "schedule: segments=", "replay: lost=")
}

func TestScheduleOnlineDump(t *testing.T) {
	args := []string{"schedule", "-mode", "online", "-frames", "600", "-dump"}
	out, err := captureStdout(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out, args, "online run:", "rates: mean=", "start(s)")
}

func TestScheduleBadMode(t *testing.T) {
	if err := dispatch([]string{"schedule", "-mode", "nonsense", "-frames", "600"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestScheduleBadInputIsAnError pins that flag values the library would
// panic on come back as errors.
func TestScheduleBadInputIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"-levels", "0"},
		{"-levels", "-3"},
		{"-buffer", "-5"},
		{"-buffer", "NaN"},
		{"-buffer", "+Inf"},
		{"-mode", "online", "-buffer", "0"},
	} {
		args = append([]string{"schedule", "-frames", "240"}, args...)
		if err := dispatch(args); err == nil {
			t.Errorf("rcbrsim %s: accepted", strings.Join(args, " "))
		}
	}
}

// TestTraceGenerateAndInspect writes a short trace and reads it back
// through the -in inspection path; the two summaries must agree.
func TestTraceGenerateAndInspect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.txt")
	gen, err := captureStdout(t, "trace", "-frames", "480", "-out", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gen, "wrote "+path) {
		t.Fatalf("generation output missing write confirmation:\n%s", gen)
	}
	insp, err := captureStdout(t, "trace", "-in", path)
	if err != nil {
		t.Fatal(err)
	}
	genSummary, _, _ := strings.Cut(gen, "\n")
	inspSummary, _, _ := strings.Cut(insp, "\n")
	if genSummary != inspSummary {
		t.Errorf("summary changed across save/load:\n gen: %s\nload: %s", genSummary, inspSummary)
	}
}

func TestTraceBadGOP(t *testing.T) {
	if err := dispatch([]string{"trace", "-frames", "480", "-gop", "XYZ"}); err == nil {
		t.Fatal("bad GOP pattern accepted")
	}
}

func TestTraceMissingInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.txt")
	for _, name := range []string{"trace", "schedule", "fit"} {
		if err := dispatch([]string{name, "-in", missing}); err == nil {
			t.Errorf("rcbrsim %s: missing input accepted", name)
		}
	}
}

// TestTraceFileRoundTrip hands a trace written by `trace -out` to the two
// commands that read one with -in: each prints the summary line the
// generator printed.
func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.txt")
	gen, err := captureStdout(t, "trace", "-frames", "480", "-out", path)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := strings.Cut(gen, "\n")
	for _, args := range [][]string{
		{"schedule", "-in", path, "-levels", "8"},
		{"fit", "-in", path},
	} {
		out, err := captureStdout(t, args...)
		if err != nil {
			t.Fatalf("rcbrsim %s: %v", strings.Join(args, " "), err)
		}
		if got, _, _ := strings.Cut(out, "\n"); got != "trace: "+want {
			t.Errorf("rcbrsim %s: first line %q, want %q", strings.Join(args, " "), got, "trace: "+want)
		}
	}
	// Text is the one trace format: there is no flag to choose another.
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	traceRun(fs)
	if err := fs.Parse([]string{"-text"}); err == nil {
		t.Error("rcbrsim trace -text: accepted")
	}
}
