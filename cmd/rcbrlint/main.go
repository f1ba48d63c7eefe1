// Command rcbrlint runs the repository's static-analysis suite (package
// internal/analysis) over the module: four analyzers enforcing the
// conventions the concurrent signaling plane and switch fabric depend on
// and no test can hold — registered metric names, lock scopes that never
// span blocking calls, errors.Is sentinel matching, and //rcbr:zeroalloc
// hot paths free of allocation.
//
// Usage:
//
//	go run ./cmd/rcbrlint ./...          # what CI runs
//	go run ./cmd/rcbrlint ./internal/netproto
//	go run ./cmd/rcbrlint -list          # describe the analyzers
//	go run ./cmd/rcbrlint -json ./...    # machine-readable findings
//
// rcbrlint prints findings as file:line:col: analyzer: message and exits
// non-zero if there are any. With -json it instead emits a JSON array of
// findings — file (repo-relative), line, col, analyzer, message — in the
// same deterministic position order, so CI can archive and diff reports
// between runs; the exit status still distinguishes findings (1) from
// driver errors (2). The cross-package check (metric-name ownership) only
// sees the packages named on the command line, so run it over ./... for
// authoritative results. Individual findings can be suppressed with a
// "//rcbrlint:ignore <analyzer> <reason>" comment on the flagged line or
// the line above it; a bare or unknown-analyzer directive is itself a
// finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rcbr/internal/analysis"
)

// jsonDiag is one finding in -json output. The field set is the reporting
// contract with CI: keep it append-only.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so tests can drive the full
// flag-to-exit-code path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rcbrlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "describe the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rcbrlint [-list] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "rcbrlint:", err)
		return 2
	}
	repo, err := analysis.LoadModule(root, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "rcbrlint:", err)
		return 2
	}
	diags, err := analysis.Run(repo, analysis.All())
	if err != nil {
		fmt.Fprintln(stderr, "rcbrlint:", err)
		return 2
	}
	if *asJSON {
		if err := writeJSON(stdout, root, diags); err != nil {
			fmt.Fprintln(stderr, "rcbrlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "rcbrlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// writeJSON emits diags as an indented JSON array — always an array, "[]"
// on a clean run, so report consumers never special-case emptiness. File
// paths are made root-relative so reports diff cleanly across checkouts.
func writeJSON(w io.Writer, root string, diags []analysis.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonDiag{
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
