// Package harness runs litmus tests many times on the simulated GPUs and
// collects histograms of final states, the experimental method of Sec. 4.2
// of the paper: each test executes thousands of times under incantations
// (stress heuristics, Sec. 4.3) and the number of runs matching the final
// condition is reported per 100k executions.
package harness

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/weakgpu/gpulitmus/internal/chip"
	"github.com/weakgpu/gpulitmus/internal/litmus"
	"github.com/weakgpu/gpulitmus/internal/ptx"
	"github.com/weakgpu/gpulitmus/internal/sim"
)

// Config parameterises a harness run.
type Config struct {
	Chip        *chip.Profile
	Incant      chip.Incant
	Runs        int   // iterations (the paper uses 100k)
	Seed        int64 // base seed; runs use Seed, Seed+1, ...
	Parallelism int   // worker goroutines (default GOMAXPROCS)
}

// DefaultRuns is the paper's iteration count.
const DefaultRuns = 100000

// Outcome is the result of running one test under one configuration.
type Outcome struct {
	Test      *litmus.Test
	Config    Config
	Histogram map[string]int // final-state fingerprint -> count
	Matches   int            // runs whose final state satisfied the condition
	Runs      int
}

// Run executes the test cfg.Runs times and histograms the final states.
// Iterations are deterministic in cfg.Seed and independent of parallelism.
func Run(t *litmus.Test, cfg Config) (*Outcome, error) {
	return RunCtx(context.Background(), t, cfg)
}

// RunCtx is Run under a context: cancelling ctx aborts the run between
// iterations on every worker and returns ctx.Err() — the gpulitmusd
// service passes request-scoped contexts so an abandoned /v1/run stops
// burning the simulator. For an uncancelled ctx the outcome is exactly
// Run's.
func RunCtx(ctx context.Context, t *litmus.Test, cfg Config) (*Outcome, error) {
	if cfg.Chip == nil {
		return nil, fmt.Errorf("harness: no chip configured")
	}
	if cfg.Runs <= 0 {
		cfg.Runs = DefaultRuns
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}

	regs, locs := condRegs(t), t.Locations()
	type partial struct {
		states []state
		counts []int
		err    error
	}
	parts := make([]partial, cfg.Parallelism)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m, err := sim.NewMachine(t, cfg.Chip, cfg.Incant)
			if err != nil {
				parts[w] = partial{err: err}
				return
			}
			// Final states are histogrammed by a compact value key; each
			// distinct key is fingerprinted and evaluated once.
			index := make(map[string]int)
			var p partial
			var key []byte
			for i := w; i < cfg.Runs; i += cfg.Parallelism {
				if err := ctx.Err(); err != nil {
					parts[w] = partial{err: err}
					return
				}
				if err := m.Run(cfg.Seed + int64(i)); err != nil {
					parts[w] = partial{err: err}
					return
				}
				key = appendKey(key[:0], m, regs, locs)
				k, ok := index[string(key)]
				if !ok {
					k = len(p.states)
					index[string(key)] = k
					p.states = append(p.states, state{fp: fingerprint(regs, locs, m), match: t.Exists.Eval(m)})
					p.counts = append(p.counts, 0)
				}
				p.counts[k]++
			}
			parts[w] = p
		}(w)
	}
	wg.Wait()

	out := &Outcome{Test: t, Config: cfg, Histogram: make(map[string]int), Runs: cfg.Runs}
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		for k, s := range p.states {
			out.Histogram[s.fp] += p.counts[k]
			if s.match {
				out.Matches += p.counts[k]
			}
		}
	}
	return out, nil
}

// state is one distinct final state a harness worker saw.
type state struct {
	fp    string // Fingerprint
	match bool   // the test's condition holds
}

// appendKey encodes the part of a final state the histogram and the
// condition can see: each condition register's presence and value, then
// each location's presence and value.
func appendKey(key []byte, s litmus.State, regs []condReg, locs []ptx.Sym) []byte {
	put := func(v int64, ok bool) {
		if !ok {
			key = append(key, 0)
			return
		}
		key = binary.LittleEndian.AppendUint64(append(key, 1), uint64(v))
	}
	for _, r := range regs {
		put(s.Reg(r.thread, r.reg))
	}
	for _, loc := range locs {
		put(s.Mem(loc))
	}
	return key
}

// Per100k scales the match count to the paper's per-100k-runs convention.
func (o *Outcome) Per100k() int {
	if o.Runs == 0 {
		return 0
	}
	return int(float64(o.Matches) * 100000.0 / float64(o.Runs))
}

// Rate returns the fraction of runs matching the condition.
func (o *Outcome) Rate() float64 {
	if o.Runs == 0 {
		return 0
	}
	return float64(o.Matches) / float64(o.Runs)
}

// Observed reports whether the weak outcome occurred at all — for
// correctness what matters is the possibility, not probability, of weak
// behaviours (Sec. 4.3).
func (o *Outcome) Observed() bool { return o.Matches > 0 }

// String renders the outcome in the style of the litmus tool: a histogram
// of final states (the matching states starred) and an Observation line.
func (o *Outcome) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Test %s on %s (%s, %d runs)\n", o.Test.Name, o.Config.Chip.ShortName, o.Config.Incant, o.Runs)
	fmt.Fprintf(&sb, "Histogram (%d states)\n", len(o.Histogram))
	keys := make([]string, 0, len(o.Histogram))
	for k := range o.Histogram {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		marker := ":>"
		if o.matchingKeys()[k] {
			marker = "*>"
		}
		fmt.Fprintf(&sb, "%-8d %s %s\n", o.Histogram[k], marker, k)
	}
	state := "Never"
	switch {
	case o.Matches == o.Runs:
		state = "Always"
	case o.Matches > 0:
		state = "Sometimes"
	}
	fmt.Fprintf(&sb, "Observation %s %s %d %d\n", o.Test.Name, state, o.Matches, o.Runs-o.Matches)
	return sb.String()
}

// matchingKeys recomputes which histogram fingerprints satisfy the
// condition by replaying them through a state stub.
func (o *Outcome) matchingKeys() map[string]bool {
	match := make(map[string]bool, len(o.Histogram))
	for k := range o.Histogram {
		s, err := parseFingerprint(k)
		if err != nil {
			continue
		}
		match[k] = o.Test.Exists.Eval(s)
	}
	return match
}

// Fingerprint renders the observable part of a final state: the registers
// mentioned by the test's condition and every memory location, in
// deterministic order.
func Fingerprint(t *litmus.Test, s litmus.State) string {
	return fingerprint(condRegs(t), t.Locations(), s)
}

// condReg is a register the test's condition mentions, with its
// fingerprint label "tid:reg".
type condReg struct {
	thread int
	reg    ptx.Reg
	label  string
}

// condRegs lists the registers the test's condition mentions, once each,
// in the order Fingerprint renders them: sorted as "tid:reg=" strings,
// which sorts "tid:reg=value" parts the same whatever the values.
func condRegs(t *litmus.Test) []condReg {
	var regs []condReg
	for _, a := range litmus.CondAtoms(t.Exists) {
		ra, ok := a.(litmus.RegEq)
		if !ok {
			continue
		}
		label := strconv.Itoa(ra.Thread) + ":" + string(ra.Reg)
		if !slices.ContainsFunc(regs, func(r condReg) bool { return r.label == label }) {
			regs = append(regs, condReg{ra.Thread, ra.Reg, label})
		}
	}
	slices.SortFunc(regs, func(a, b condReg) int { return compareWithEq(a.label, b.label) })
	return regs
}

// compareWithEq compares a+"=" with b+"=" without building either.
func compareWithEq(a, b string) int {
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 || len(a) == len(b) {
		return c
	}
	if len(a) < len(b) {
		return cmp.Compare('=', b[n])
	}
	return cmp.Compare(a[n], '=')
}

func fingerprint(regs []condReg, locs []ptx.Sym, s litmus.State) string {
	var b []byte
	for _, r := range regs {
		v, _ := s.Reg(r.thread, r.reg)
		b = strconv.AppendInt(append(append(b, r.label...), '='), v, 10)
		b = append(b, ' ')
	}
	for _, loc := range locs {
		v, _ := s.Mem(loc)
		b = strconv.AppendInt(append(append(b, loc...), '='), v, 10)
		b = append(b, ' ')
	}
	if len(b) > 0 {
		b = b[:len(b)-1]
	}
	return string(b)
}

// parseFingerprint reconstructs a State from a fingerprint.
func parseFingerprint(fp string) (litmus.State, error) {
	s := litmus.NewMapState()
	for _, part := range strings.Fields(fp) {
		eq := strings.SplitN(part, "=", 2)
		if len(eq) != 2 {
			return nil, fmt.Errorf("harness: bad fingerprint part %q", part)
		}
		var v int64
		if _, err := fmt.Sscanf(eq[1], "%d", &v); err != nil {
			return nil, err
		}
		if colon := strings.Index(eq[0], ":"); colon >= 0 {
			var tid int
			if _, err := fmt.Sscanf(eq[0][:colon], "%d", &tid); err != nil {
				return nil, err
			}
			s.SetReg(tid, ptx.Reg(eq[0][colon+1:]), v)
		} else {
			s.SetMem(ptx.Sym(eq[0]), v)
		}
	}
	return s, nil
}
