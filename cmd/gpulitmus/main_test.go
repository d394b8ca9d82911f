package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// golden drives run() with argv and compares its output to a checked-in
// golden file. Everything run() emits is deterministic in the flags (the
// campaign engine guarantees seed-derived, worker-count-independent
// results), so the files pin the full end-to-end behaviour.
func golden(t *testing.T, name string, argv []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(argv, &buf, io.Discard); err != nil {
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

func TestGoldenRun(t *testing.T) {
	golden(t, "run.golden", []string{"-chip", "Titan", "-runs", "2000", "-seed", "7", "coRR", "mp", "sb"})
}

func TestGoldenRunParallelismInvariant(t *testing.T) {
	// The same sweep on a single worker must reproduce the golden file
	// byte for byte: output is independent of the pool size.
	golden(t, "run.golden", []string{"-par", "1", "-chip", "Titan", "-runs", "2000", "-seed", "7", "coRR", "mp", "sb"})
	golden(t, "run.golden", []string{"-par", "7", "-chip", "Titan", "-runs", "2000", "-seed", "7", "coRR", "mp", "sb"})
}

func TestGoldenKernel(t *testing.T) {
	golden(t, "kernel.golden", []string{"-chip", "Titan", "-kernel", "mp"})
}

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"coRR", "mp", "sb", "lb"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-list missing %s", name)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf, io.Discard); err != errNoTests {
		t.Errorf("no args: %v", err)
	}
	if err := run([]string{"-chip", "nope", "coRR"}, &buf, io.Discard); err == nil {
		t.Error("unknown chip must error")
	}
	if err := run([]string{"-incant", "zz", "coRR"}, &buf, io.Discard); err == nil {
		t.Error("unknown incantation must error")
	}
	err := run([]string{"no-such-test"}, &buf, io.Discard)
	if want := `gpulitmus: "no-such-test" is neither a known test nor a readable file: open no-such-test: no such file or directory`; err == nil || err.Error() != want {
		t.Errorf("unresolvable test error:\n got %v\nwant %s", err, want)
	}
}

// TestProgressFlag pins -progress: stdout is byte-identical to the
// progress-free run, and stderr carries one start and one done line per
// test, each naming the test and its seed or run counts.
func TestProgressFlag(t *testing.T) {
	argv := []string{"-chip", "Titan", "-runs", "2000", "-seed", "7", "coRR", "mp"}
	var plain bytes.Buffer
	if err := run(argv, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out, prog bytes.Buffer
	if err := run(append([]string{"-progress"}, argv...), &out, &prog); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), plain.Bytes()) {
		t.Errorf("-progress changed stdout:\ngot:\n%s\nwant:\n%s", out.Bytes(), plain.Bytes())
	}
	lines := strings.Split(strings.TrimSuffix(prog.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("progress lines = %d, want 4 (start+done per test):\n%s", len(lines), prog.String())
	}
	var starts, dones int
	for _, ln := range lines {
		switch {
		case strings.Contains(ln, " start seed=7"):
			starts++
		case strings.Contains(ln, " done runs=2000 matches="):
			dones++
		default:
			t.Errorf("unexpected progress line %q", ln)
		}
		if !strings.HasPrefix(ln, "gpulitmus: cell ") {
			t.Errorf("progress line %q lacks the gpulitmus: cell prefix", ln)
		}
		if !strings.Contains(ln, "coRR") && !strings.Contains(ln, "mp") {
			t.Errorf("progress line %q names no test", ln)
		}
	}
	if starts != 2 || dones != 2 {
		t.Errorf("starts=%d dones=%d, want 2 and 2", starts, dones)
	}
	if plain.Len() == 0 {
		t.Error("no results printed")
	}
}
