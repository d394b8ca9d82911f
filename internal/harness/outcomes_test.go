package harness

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestOutcomesGolden pins every rendered outcome of the paper's tests on
// every chip under three incantation settings: one line per cell with the
// match count and the SHA-256 of Outcome.String(). Any change to the
// simulator's draws, the harness's histogramming or the fingerprint format
// shows up here, so a rewrite that claims to be outcome-identical must
// pass it without -update.
func TestOutcomesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("576 cells of 500 runs")
	}
	incants := []chip.Incant{{}, chip.Default(), {MemStress: true, BankConflicts: true, ThreadSync: true, ThreadRand: true}}
	var buf bytes.Buffer
	for _, test := range litmus.PaperTests() {
		for _, p := range chip.All() {
			for _, inc := range incants {
				o, err := Run(test, Config{Chip: p, Incant: inc, Runs: 500, Seed: 20150314})
				if err != nil {
					t.Fatalf("%s on %s (%s): %v", test.Name, p.ShortName, inc, err)
				}
				fmt.Fprintf(&buf, "%s %s %s %d %x\n", test.Name, p.ShortName, inc, o.Matches, sha256.Sum256([]byte(o.String())))
			}
		}
	}
	path := filepath.Join("testdata", "outcomes.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		got, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range got {
			if i >= len(wantLines) || !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("outcomes differ from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, got[i], wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("outcomes differ from %s (re-run with -update only if the change is intended)", path)
	}
}
