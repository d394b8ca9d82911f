package gpulitmus

import (
	"context"
	"os"
	"strings"
	"testing"
)

func TestFacadeRoundTrip(t *testing.T) {
	test, err := TestByName("coRR")
	if err != nil {
		t.Fatal(err)
	}
	re, err := ParseTest(test.String())
	if err != nil {
		t.Fatal(err)
	}
	if re.Name != "coRR" {
		t.Errorf("Name = %q", re.Name)
	}
}

func TestFacadeRunAndJudge(t *testing.T) {
	test := MustParseTest(`GPU_PTX mp-quick
{}
 T0          | T1          ;
 st.cg [x],1 | ld.cg r1,[y] ;
 st.cg [y],1 | ld.cg r2,[x] ;
ScopeTree(grid(cta(warp T0)) (cta(warp T1)))
x: global, y: global
exists (1:r1=1 /\ 1:r2=0)
`)
	out, err := Run(test, RunConfig{Chip: ChipTitan, Runs: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Observed() {
		t.Error("mp must be observable on Titan")
	}
	v, err := Judge(test)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Observable {
		t.Error("mp must be allowed by the PTX model")
	}
	if ok, _ := ModelCovers(test); !ok {
		t.Error("plain .cg/global test must be covered")
	}
}

func TestFacadeSweep(t *testing.T) {
	mp, _ := TestByName("mp")
	sb, _ := TestByName("sb")
	c := Campaign{
		Tests: []*Test{mp, sb},
		Chips: []*Chip{ChipTitan, ChipGTX280},
		Runs:  800,
		Seed:  3,
	}
	res, err := Sweep(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 4 {
		t.Fatalf("2×2 campaign produced %d outcomes", len(res.Outcomes))
	}
	if !res.Outcome(0, 0, 0).Observed() {
		t.Error("mp must be observed on Titan")
	}
	if res.Outcome(0, 1, 0).Observed() {
		t.Error("mp must not be observed on GTX 280")
	}

	// The streaming form delivers the same outcomes, in completion order.
	n := 0
	for r := range SweepStream(c) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want := res.Outcomes[r.Job.Index]
		if r.Outcome.Matches != want.Matches {
			t.Errorf("job %d: streamed outcome diverges from swept outcome", r.Job.Index)
		}
		n++
	}
	if n != 4 {
		t.Errorf("streamed %d results", n)
	}
}

func TestFacadeModels(t *testing.T) {
	ctx := context.Background()
	test, _ := TestByName("lb+membar.ctas")
	ptxV, err := JudgeWith(ctx, PTXModel(), test, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	opV, err := JudgeWith(ctx, OperationalModel(), test, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !ptxV.Observable || opV.Observable {
		t.Errorf("Sec. 6 divergence lost: ptx=%v op=%v", ptxV.Observable, opV.Observable)
	}
	scV, err := JudgeWith(ctx, SCModel(), test, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if scV.Observable {
		t.Error("SC must forbid lb")
	}
}

// TestJudgeWith: each option changes only how the verdict is reached.
// Static decides a fenced mp without enumerating; an explicit parallelism
// renders the same verdict as the serial default.
func TestJudgeWith(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name, test  string
		opts        Opts
		want        string
		wantSkipped bool
	}{
		{"static", "mp+membar.gls", Opts{Static: true}, "Test mp+membar.gls: Never (static, enumeration skipped) under PTX", true},
		{"parallelism", "mp", Opts{Parallelism: 4}, "Test mp: Sometimes (4/4 candidates allowed, 1 witnesses) under PTX", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			test, err := TestByName(tc.test)
			if err != nil {
				t.Fatal(err)
			}
			v, err := JudgeWith(ctx, PTXModel(), test, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := v.String(); !strings.HasPrefix(got, tc.want) || v.StaticSkipped != tc.wantSkipped {
				t.Errorf("verdict %q (static skipped %v), want %q (%v)", got, v.StaticSkipped, tc.want, tc.wantSkipped)
			}
			plain, err := Judge(test)
			if err != nil {
				t.Fatal(err)
			}
			if v.Observable != plain.Observable {
				t.Errorf("observable %v, Judge says %v", v.Observable, plain.Observable)
			}
		})
	}
}

// TestResolveTest: a paper test's name wins, else the argument is read and
// parsed as a litmus file, else the error names both failures.
func TestResolveTest(t *testing.T) {
	t.Chdir(t.TempDir())
	mp, err := TestByName("mp")
	if err != nil {
		t.Fatal(err)
	}
	// A file holding mp's source, and one named like a paper test.
	if err := os.WriteFile("mine.litmus", []byte(mp.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("coRR", []byte(mp.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, arg, wantTest, wantErr string
	}{
		{"paper name", "sb", "sb", ""},
		{"litmus file", "mine.litmus", "mp", ""},
		{"unreadable path", "no-such-test", "", `"no-such-test" is neither a known test nor a readable file: open no-such-test: no such file or directory`},
		{"name wins over file", "coRR", "coRR", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ResolveTest(context.Background(), tc.arg)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != tc.wantTest {
				t.Errorf("resolved %q, want %q", got.Name, tc.wantTest)
			}
		})
	}
}

func TestFacadeGenerate(t *testing.T) {
	tests := GenerateTests(4, 30)
	if len(tests) != 30 {
		t.Fatalf("got %d tests", len(tests))
	}
	one, err := TestFromEdges("my-mp", "Rfe PodRR Fre PodWW")
	if err != nil {
		t.Fatal(err)
	}
	if one.NumThreads() != 2 {
		t.Errorf("threads = %d", one.NumThreads())
	}
}

func TestFacadeCompileCheck(t *testing.T) {
	test, _ := TestByName("coRR")
	vs, err := CheckCompile(test, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("clean compile flagged: %v", vs)
	}
}

func TestFacadeChips(t *testing.T) {
	if len(Chips()) != 8 {
		t.Errorf("Table 1 has 8 chips, got %d", len(Chips()))
	}
	p, err := ChipByName("Titan")
	if err != nil || p != ChipTitan {
		t.Errorf("ChipByName: %v %v", p, err)
	}
	if _, err := ChipByName("nope"); err == nil {
		t.Error("unknown chip must error")
	}
	if len(AllIncants()) != 16 {
		t.Error("16 incantation combinations")
	}
	if !DefaultIncant().MemStress {
		t.Error("default incantations include memory stress")
	}
}

func TestFacadeApps(t *testing.T) {
	as := Apps()
	if len(as) != 6 {
		t.Fatalf("got %d apps", len(as))
	}
	names := make([]string, 0, len(as))
	for _, a := range as {
		names = append(names, a.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"dot-product", "work-stealing-deque", "transactions"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing app %q in %v", want, names)
		}
	}
}
