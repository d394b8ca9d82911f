// Command gpulint statically analyses litmus tests without running or
// enumerating anything: races, Shasha–Snir critical cycles, wrong-scope
// fences (the paper's Sec. 6 broken idioms), unused registers, dead
// writes, redundant fences, unsatisfiable conditions — plus the static
// prefilter verdict under each builtin model.
//
// With -fix, gpulint additionally synthesizes a judge-verified fence
// repair per test under the PTX model: the minimal set of membar
// insertions or strengthenings making the exists-condition Never,
// rendered as a unified-diff-style source comparison (or, with -json, as
// the same repair objects POST /v1/repair answers, so the two surfaces
// can be byte-compared).
//
// Usage:
//
//	gpulint mp-L1+membar.ctas test.litmus
//	gpulint -json -all
//	gpulint -fix mp-L1+membar.ctas
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	gpulitmus "github.com/weakgpu/gpulitmus"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errNoTests):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case errors.Is(err, errFlagParse):
		os.Exit(2) // the FlagSet already printed the error and usage
	case errors.Is(err, errFindings):
		os.Exit(3) // analysis succeeded; warnings were found (-strict)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

var (
	errNoTests   = fmt.Errorf("gpulint: no tests given (name paper tests or .litmus files, or pass -all)")
	errFlagParse = fmt.Errorf("gpulint: bad flags")
	errFindings  = fmt.Errorf("gpulint: warnings found")
)

// run executes the command against argv, writing reports to w. It is the
// whole command minus process concerns, so tests can drive it directly.
func run(argv []string, w io.Writer) error {
	fs := flag.NewFlagSet("gpulint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit one JSON report per test (array)")
	all := fs.Bool("all", false, "analyse every paper test")
	strict := fs.Bool("strict", false, "exit 3 when any warning-severity diagnostic is found")
	fix := fs.Bool("fix", false, "synthesize a judge-verified fence repair per test (PTX model)")
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errFlagParse
	}

	var tests []*gpulitmus.Test
	if *all {
		tests = gpulitmus.PaperTests()
	}
	for _, arg := range fs.Args() {
		t, err := gpulitmus.ResolveTest(context.Background(), arg)
		if err != nil {
			return fmt.Errorf("gpulint: %w", err)
		}
		tests = append(tests, t)
	}
	if len(tests) == 0 {
		return errNoTests
	}

	if *fix {
		return runFix(tests, *jsonOut, w)
	}

	reports := make([]*gpulitmus.AnalysisReport, len(tests))
	warned := false
	for i, t := range tests {
		reports[i] = gpulitmus.Analyze(t)
		for _, d := range reports[i].Diagnostics {
			if d.Severity == "warning" {
				warned = true
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	} else {
		for _, r := range reports {
			writeReport(w, r)
		}
	}
	if *strict && warned {
		return errFindings
	}
	return nil
}

// runFix synthesizes one judge-verified repair per test. The JSON shape
// is deliberately the /v1/repair response type minus its cache markers,
// so a service answer and a gpulint -fix -json answer for the same test
// carry identical repair fields (CI byte-compares the repaired source).
func runFix(tests []*gpulitmus.Test, jsonOut bool, w io.Writer) error {
	results := make([]gpulitmus.RepairResponse, len(tests))
	for i, t := range tests {
		r, err := gpulitmus.RepairTest(t)
		if err != nil {
			return fmt.Errorf("gpulint: repairing %s: %w", t.Name, err)
		}
		resp := gpulitmus.RepairResponse{
			Test:           t.Name,
			Model:          "ptx",
			Fingerprint:    t.Fingerprint(),
			Verified:       r.Verified,
			NoRepairNeeded: r.NoRepairNeeded(),
			Actions:        r.Actions,
			Attempts:       r.Attempts,
			Reason:         r.Reason,
			Summary:        r.Summary(),
		}
		if r.Verified && len(r.Actions) > 0 {
			resp.Repaired = r.Repaired.String()
			resp.RepairedFingerprint = r.Repaired.Fingerprint()
		}
		results[i] = resp
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	for i, resp := range results {
		writeFix(w, tests[i], resp)
	}
	return nil
}

// writeFix renders one repair as text: a header, the one-line summary,
// and — when the repair edits anything — a unified-diff-style comparison
// of the canonical source before and after the fence edits.
func writeFix(w io.Writer, t *gpulitmus.Test, resp gpulitmus.RepairResponse) {
	fmt.Fprintf(w, "== %s ==\n", resp.Test)
	fmt.Fprintln(w, "fix:", resp.Summary)
	if resp.Repaired == "" {
		return
	}
	fmt.Fprintf(w, "--- %s\n+++ %s (repaired)\n", resp.Test, resp.Test)
	writeDiff(w, splitLines(t.String()), splitLines(resp.Repaired))
}

// splitLines splits a rendered source into lines without a trailing
// empty element.
func splitLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}

// writeDiff emits a minimal line diff (longest-common-subsequence walk):
// shared lines with a leading space, removals with -, additions with +.
// Inputs are whole litmus sources — a few dozen lines — so the quadratic
// table is irrelevant.
func writeDiff(w io.Writer, a, b []string) {
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			fmt.Fprintf(w, " %s\n", a[i])
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			fmt.Fprintf(w, "-%s\n", a[i])
			i++
		default:
			fmt.Fprintf(w, "+%s\n", b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		fmt.Fprintf(w, "-%s\n", a[i])
	}
	for ; j < len(b); j++ {
		fmt.Fprintf(w, "+%s\n", b[j])
	}
}

// writeReport renders one report as text: a header, one line per
// diagnostic, and the per-model static verdicts on a single sorted line.
func writeReport(w io.Writer, r *gpulitmus.AnalysisReport) {
	fmt.Fprintf(w, "== %s ==\n", r.Test)
	if len(r.Diagnostics) == 0 {
		fmt.Fprintln(w, "no findings")
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintln(w, d)
	}
	keys := make([]string, 0, len(r.Static))
	for k := range r.Static {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "static:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%s", k, r.Static[k])
	}
	fmt.Fprintln(w)
}
