package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gpulitmus "github.com/weakgpu/gpulitmus"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// golden drives run() with argv and compares its output to a checked-in
// golden file. Model verdicts are fully deterministic (candidate
// enumeration and the compiled relation engine are seed-free), so the files
// pin the end-to-end behaviour byte for byte.
func golden(t *testing.T, name string, argv []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(argv, &buf); err != nil {
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

func TestGoldenPTXVerdicts(t *testing.T) {
	// Covers allowed and forbidden outcomes plus the outside-scope advisory
	// (mp-L1 uses .ca loads).
	golden(t, "ptx.golden", []string{"-model", "ptx", "coRR", "mp", "mp+membar.gls", "sb", "lb", "mp-L1"})
}

func TestGoldenWitness(t *testing.T) {
	golden(t, "witness.golden", []string{"-v", "coRR"})
}

// TestGoldenRepair pins the -repair rendering: an Allowed verdict is
// followed by the synthesized fix line; a Never verdict prints none.
func TestGoldenRepair(t *testing.T) {
	golden(t, "repair.golden", []string{"-repair", "mp-L1+membar.ctas", "mp", "mp+membar.gls"})
}

func TestGoldenModels(t *testing.T) {
	golden(t, "sc.golden", []string{"-model", "sc", "coRR", "mp"})
	golden(t, "rmo.golden", []string{"-model", "rmo", "coRR", "lb+membar.ctas"})
	golden(t, "op.golden", []string{"-model", "op", "lb+membar.ctas"})
}

// TestRepeatedTestsShareOneAnalysis: naming a test twice prints the same
// verdict line twice — the invocation's shared memo serves the repeat from
// cache, so the output is exactly the single-test line doubled.
func TestRepeatedTestsShareOneAnalysis(t *testing.T) {
	var once, twice bytes.Buffer
	if err := run([]string{"coRR"}, &once); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"coRR", "coRR"}, &twice); err != nil {
		t.Fatal(err)
	}
	if got, want := twice.String(), once.String()+once.String(); got != want {
		t.Errorf("repeated test output:\n%swant the single line doubled:\n%s", got, want)
	}
}

// TestRenamedIdenticalTestKeepsItsName: a content-identical test under a
// different name shares the memo entry but must still print its own name.
func TestRenamedIdenticalTestKeepsItsName(t *testing.T) {
	orig, err := gpulitmus.TestByName("coRR")
	if err != nil {
		t.Fatal(err)
	}
	renamed := *orig
	renamed.Name = "corr-renamed"
	dir := t.TempDir()
	path := filepath.Join(dir, "renamed.litmus")
	if err := os.WriteFile(path, []byte(renamed.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"coRR", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Test coRR:") || !strings.Contains(out, "Test corr-renamed:") {
		t.Errorf("each verdict must carry its own test's name:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); !errors.Is(err, errNoTests) {
		t.Errorf("no args: %v (must map to exit 2)", err)
	}
	if err := run([]string{"-model", "nope", "coRR"}, &buf); !errors.Is(err, errBadModel) {
		t.Errorf("unknown model: %v (must map to exit 2)", err)
	}
	err := run([]string{"no-such-test"}, &buf)
	if err == nil || errors.Is(err, errNoTests) || errors.Is(err, errBadModel) {
		t.Errorf("unresolvable test: %v (must map to exit 1)", err)
	}
	if want := `gpuherd: "no-such-test" is neither a known test nor a readable file: open no-such-test: no such file or directory`; err == nil || err.Error() != want {
		t.Errorf("unresolvable test error:\n got %v\nwant %s", err, want)
	}
	bad := filepath.Join(t.TempDir(), "bad.litmus")
	if err := os.WriteFile(bad, []byte("not a litmus test\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &buf); err == nil || !strings.HasPrefix(err.Error(), "gpuherd: litmus: ") {
		t.Errorf("unparsable file error %v, want the gpuherd: litmus: prefix", err)
	}
}

// TestStaticFlag: -static skips enumeration on statically decided tests
// (the verdict line carries the annotation) and leaves statically
// undecided tests byte-identical to a plain run.
func TestStaticFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-static", "mp+membar.gls", "coRR"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Test mp+membar.gls: Never (static, enumeration skipped) under PTX") {
		t.Errorf("statically forbidden test not annotated:\n%s", out)
	}
	var plain bytes.Buffer
	if err := run([]string{"coRR"}, &plain); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, strings.TrimSpace(plain.String())) {
		t.Errorf("statically unknown test must fall back to the enumerated verdict:\nstatic run:\n%s\nplain run:\n%s", out, plain.String())
	}
}

// TestTraceFlag: -trace appends a phase table after each verdict — trace
// ID header, per-phase rows summing under wall, and a counter line whose
// candidates agree with the verdict. Durations vary run to run, so the
// structure is asserted rather than a golden file.
func TestTraceFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-trace", "-j", "1", "mp"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Test mp: Sometimes") {
		t.Fatalf("verdict line missing:\n%s", out)
	}
	if !strings.Contains(out, "trace ") {
		t.Fatalf("-trace printed no trace header:\n%s", out)
	}
	for _, row := range []string{"prepare", "enumerate", "eval", "merge", "wall", "combos=", "candidates=4"} {
		if !strings.Contains(out, row) {
			t.Errorf("phase table lacks %q:\n%s", row, out)
		}
	}
	if strings.Contains(out, "lookup") {
		t.Errorf("CLI trace shows a lookup phase; that tier only exists in gpulitmusd:\n%s", out)
	}

	// Without -trace the output is exactly the verdict (no table leak).
	buf.Reset()
	if err := run([]string{"mp"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "trace ") {
		t.Errorf("untraced run leaked a phase table:\n%s", buf.String())
	}

	// A repeated traced argument joins the memo: its table records no
	// enumeration (candidates=0) but the verdict line is identical.
	buf.Reset()
	if err := run([]string{"-trace", "-j", "1", "sb", "sb"}, &buf); err != nil {
		t.Fatal(err)
	}
	tables := strings.Count(buf.String(), "trace ")
	if tables != 2 {
		t.Fatalf("want a phase table per argument, got %d:\n%s", tables, buf.String())
	}
	if !strings.Contains(buf.String(), "candidates=0") {
		t.Errorf("memo-joined repeat still counted candidates:\n%s", buf.String())
	}
}
