package analysis

import (
	"strings"
	"testing"
)

// TestDirectiveHardening is the regression test for lint-time directive
// rejection: every malformed //rcbrlint:ignore in testdata/src/directive is
// itself reported, attributed to the driver, and suppresses nothing — while
// the one well-formed directive still works. Expectations are asserted here
// rather than with // want comments because a want comment appended to a
// directive line would be parsed as the directive's reason.
func TestDirectiveHardening(t *testing.T) {
	repo, err := LoadTree("testdata", []string{"directive"})
	if err != nil {
		t.Fatalf("loading directive tree: %v", err)
	}
	diags, err := Run(repo, []*Analyzer{SentinelCmp})
	if err != nil {
		t.Fatalf("running sentinelcmp: %v", err)
	}

	var driver, sentinel []Diagnostic
	for _, d := range diags {
		switch d.Analyzer {
		case driverName:
			driver = append(driver, d)
		case SentinelCmp.Name:
			sentinel = append(sentinel, d)
		default:
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}

	wantDriver := []string{
		"has no reason",
		"needs an analyzer name and a reason",
		"separate the analyzer name with a space",
		`unknown analyzer "sentinelchk"`,
	}
	if len(driver) != len(wantDriver) {
		t.Fatalf("got %d driver diagnostics, want %d: %v", len(driver), len(wantDriver), driver)
	}
	for _, want := range wantDriver {
		found := false
		for _, d := range driver {
			if strings.Contains(d.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no driver diagnostic matching %q in %v", want, driver)
		}
	}

	// Four malformed directives suppress nothing: four == comparisons
	// report. The fifth, under the well-formed directive, stays silent.
	if len(sentinel) != 4 {
		t.Errorf("got %d sentinelcmp diagnostics, want 4 (malformed directives must not suppress): %v", len(sentinel), sentinel)
	}
}

// FuzzIgnoreDirective hammers the directive parser: it must never panic,
// must classify exactly the ignorePrefix comments as directives, and every
// accepted directive must carry a non-empty analyzer and reason.
func FuzzIgnoreDirective(f *testing.F) {
	f.Add("//rcbrlint:ignore lockscope held lock is release-ordered by the pool")
	f.Add("//rcbrlint:ignore")
	f.Add("//rcbrlint:ignore sentinelcmp")
	f.Add("//rcbrlint:ignore all everything is fine here")
	f.Add("//rcbrlint:ignoreall mangled")
	f.Add("//rcbrlint:ignore\tlockscope\ttabs as separators")
	f.Add("// plain comment")
	f.Add("")
	f.Add("//rcbrlint:ignore zeroalloc   multiple   spaces   ")
	f.Fuzz(func(t *testing.T, text string) {
		dir, match, err := parseIgnoreDirective(text)
		if match != strings.HasPrefix(text, ignorePrefix) {
			t.Fatalf("match=%v disagrees with prefix for %q", match, text)
		}
		if !match || err != nil {
			if dir != (ignoreDirective{}) {
				t.Fatalf("rejected parse returned non-zero directive %+v for %q", dir, text)
			}
			return
		}
		if dir.analyzer == "" || strings.ContainsAny(dir.analyzer, " \t") {
			t.Fatalf("accepted directive has bad analyzer %q for %q", dir.analyzer, text)
		}
		if strings.TrimSpace(dir.reason) == "" {
			t.Fatalf("accepted directive has empty reason for %q", text)
		}
		fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
		if fields[0] != dir.analyzer {
			t.Fatalf("analyzer %q does not match first field %q of %q", dir.analyzer, fields[0], text)
		}
	})
}
