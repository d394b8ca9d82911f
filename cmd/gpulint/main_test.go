package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	gpulitmus "github.com/weakgpu/gpulitmus"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// golden drives run() with argv and compares its output to a checked-in
// golden file. The analyzer is fully deterministic (sorted diagnostics,
// sorted static-verdict keys), so the files pin the behaviour byte for
// byte.
func golden(t *testing.T, name string, argv []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(argv, &buf); err != nil && !errors.Is(err, errFindings) {
		t.Fatalf("run(%v): %v", argv, err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}

// TestGoldenBrokenIdioms covers the acceptance criterion: the wrong-scope
// fence tests of the paper carry a scope-mismatch/critical-cycle warning.
func TestGoldenBrokenIdioms(t *testing.T) {
	golden(t, "broken.golden", []string{"mp-L1+membar.ctas", "mp", "lb+membar.ctas", "dlb-mp"})
}

// TestGoldenClean covers tests whose cycles are properly fenced plus an
// idiom-lint showcase.
func TestGoldenClean(t *testing.T) {
	golden(t, "clean.golden", []string{"mp+membar.gls", "coRR", "sb"})
}

// TestGoldenAllPaperTests pins the full corpus sweep.
func TestGoldenAllPaperTests(t *testing.T) {
	golden(t, "all.golden", []string{"-all"})
}

// TestGoldenJSON pins the JSON schema (API.md documents it).
func TestGoldenJSON(t *testing.T) {
	golden(t, "json.golden", []string{"-json", "mp-L1+membar.ctas"})
}

// TestGoldenFix pins the -fix unified-diff rendering on the Sec. 6
// broken-idiom corpus (scope-mismatch and missing-fence repairs) plus an
// already-forbidden test.
func TestGoldenFix(t *testing.T) {
	golden(t, "fix.golden", []string{"-fix", "mp-L1+membar.ctas", "mp", "lb+membar.ctas", "mp+membar.gls"})
}

// TestGoldenFixJSON pins the -fix -json schema — the repair object shape
// the CI daemon smoke byte-compares against POST /v1/repair.
func TestGoldenFixJSON(t *testing.T) {
	golden(t, "fix-json.golden", []string{"-fix", "-json", "mp-L1+membar.ctas"})
}

// TestFixRepairsAreJudgeVerified re-judges every -fix suggestion on the
// broken corpus: each repaired source parses and is Never under PTX.
func TestFixRepairsAreJudgeVerified(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fix", "-json", "mp-L1+membar.ctas", "mp", "lb+membar.ctas"}, &buf); err != nil {
		t.Fatal(err)
	}
	var results []gpulitmus.RepairResponse
	if err := json.Unmarshal(buf.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Verified || r.Repaired == "" {
			t.Fatalf("%s: want a verified repair, got %+v", r.Test, r)
		}
		repaired, err := gpulitmus.ParseTest(r.Repaired)
		if err != nil {
			t.Fatalf("%s: repaired source does not parse: %v", r.Test, err)
		}
		v, err := gpulitmus.Judge(repaired)
		if err != nil {
			t.Fatal(err)
		}
		if v.Observable {
			t.Errorf("%s: repaired test still observable under PTX", r.Test)
		}
	}
}

// TestJSONWellFormed: the -json output parses back into reports.
func TestJSONWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-json", "-all"}, &buf); err != nil {
		t.Fatal(err)
	}
	var reports []*gpulitmus.AnalysisReport
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(reports) != len(gpulitmus.PaperTests()) {
		t.Errorf("got %d reports, want %d", len(reports), len(gpulitmus.PaperTests()))
	}
	for _, r := range reports {
		if r.Fingerprint == "" || r.Static["ptx"] == "" {
			t.Errorf("report %s missing fingerprint or static verdicts", r.Test)
		}
	}
}

// TestStrictExit: -strict maps warnings to the findings error (exit 3).
func TestStrictExit(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-strict", "mp"}, &buf); !errors.Is(err, errFindings) {
		t.Errorf("-strict mp: err = %v, want errFindings", err)
	}
	buf.Reset()
	if err := run([]string{"-strict", "mp+membar.gls"}, &buf); err != nil {
		t.Errorf("-strict mp+membar.gls: err = %v, want nil (no warnings)", err)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); !errors.Is(err, errNoTests) {
		t.Errorf("no args: %v (must map to exit 2)", err)
	}
	err := run([]string{"no-such-test"}, &buf)
	if err == nil || errors.Is(err, errNoTests) {
		t.Errorf("unresolvable test: %v (must map to exit 1)", err)
	}
	if want := `gpulint: "no-such-test" is neither a known test nor a readable file: open no-such-test: no such file or directory`; err == nil || err.Error() != want {
		t.Errorf("unresolvable test error:\n got %v\nwant %s", err, want)
	}
}
