package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// golden drives run() with argv, asserts the expected sentinel error (nil
// for a clean pass, errMiscompiled for detected miscompilations), and
// compares stdout to a checked-in golden file. The SASS pipeline is
// deterministic, so the files pin the end-to-end behaviour byte for byte.
func golden(t *testing.T, name string, wantErr error, argv []string) {
	t.Helper()
	var buf bytes.Buffer
	err := run(argv, &buf)
	if wantErr == nil && err != nil {
		t.Fatalf("run(%v): %v", argv, err)
	}
	if wantErr != nil && !errors.Is(err, wantErr) {
		t.Fatalf("run(%v) = %v, want %v", argv, err, wantErr)
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

func TestGoldenPreserved(t *testing.T) {
	golden(t, "ok.golden", nil, []string{"-O", "3", "coRR", "mp", "sb"})
}

func TestGoldenMiscompiled(t *testing.T) {
	// The Table 2 toolchain-bug emulations must be caught; exit status 1 is
	// signalled through errMiscompiled.
	golden(t, "eliminate-loads.golden", errMiscompiled, []string{"-O", "3", "-bug", "eliminate-loads", "coRR"})
	golden(t, "reorder-load-cas.golden", errMiscompiled, []string{"-O", "3", "-bug", "reorder-load-cas", "dlb-lb"})
}

func TestGoldenLevels(t *testing.T) {
	// At -O0 even the buggy optimisers stay inert.
	golden(t, "o0.golden", nil, []string{"-O", "0", "-bug", "eliminate-loads", "coRR"})
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); !errors.Is(err, errNoTests) {
		t.Errorf("no args: %v (must map to exit 2)", err)
	}
	if err := run([]string{"-O", "7", "coRR"}, &buf); !errors.Is(err, errBadLevel) {
		t.Errorf("bad level: %v (must map to exit 2)", err)
	}
	if err := run([]string{"-bug", "nope", "coRR"}, &buf); !errors.Is(err, errBadBug) {
		t.Errorf("unknown bug: %v (must map to exit 2)", err)
	}
	err := run([]string{"no-such-test"}, &buf)
	if err == nil || errors.Is(err, errNoTests) {
		t.Errorf("unresolvable test: %v (must map to exit 1)", err)
	}
	if want := `optcheck: "no-such-test" is neither a known test nor a readable file: open no-such-test: no such file or directory`; err == nil || err.Error() != want {
		t.Errorf("unresolvable test error:\n got %v\nwant %s", err, want)
	}
}
