package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/weakgpu/gpulitmus/internal/analysis"
	"github.com/weakgpu/gpulitmus/internal/core"
	"github.com/weakgpu/gpulitmus/internal/harness"
	"github.com/weakgpu/gpulitmus/internal/obs"
)

// A record is one cached answer: a judge verdict, a harness outcome or a
// fence repair. It is the value every cache tier holds: the memory LRU
// keeps the struct, and the segment store, the owning peer and
// GET /v1/object keep its JSON encoding. Records carry only
// content-derived facts, never a test, name or host, so they are valid
// forever, shareable between stores, and answer every test with the same
// content: each endpoint renders the record under its own request's test.
type record interface {
	// validate reports whether the record upholds the invariants the
	// engine guarantees for an answer stored under key. A record that
	// fails is treated as absent: recomputed and superseded.
	validate(key string) error
}

// Record kinds: the first field of every cache key. Each kind's key
// builder owns the rest of its layout.
const (
	judgeKind  = "judge"
	runKind    = "run"
	repairKind = "repair"
)

// recordKinds maps each kind to a fresh record of its type. Keys of these
// kinds are the only ones the service looks up, and so the only ones
// GET and POST /v1/object accept.
var recordKinds = map[string]func() record{
	judgeKind:  func() record { return new(verdictRecord) },
	runKind:    func() record { return new(outcomeRecord) },
	repairKind: func() record { return new(repairRecord) },
}

// validKey reports whether key has a known record kind.
func validKey(key string) bool {
	kind, _, _ := strings.Cut(key, "|")
	return recordKinds[kind] != nil
}

// decodeRecord parses b as a record of key's kind and validates it
// against key.
func decodeRecord(key string, b []byte) (record, error) {
	kind, _, _ := strings.Cut(key, "|")
	newRecord := recordKinds[kind]
	if newRecord == nil {
		return nil, fmt.Errorf("service: unknown record kind in key %q", key)
	}
	rec := newRecord()
	if err := json.Unmarshal(b, rec); err != nil {
		return nil, err
	}
	if err := rec.validate(key); err != nil {
		return nil, err
	}
	return rec, nil
}

// maxObjectBytes bounds one record on the wire and in POST /v1/object.
const maxObjectBytes = 16 << 20

// judgeKey addresses the verdict of the test with fingerprint fp under m.
func judgeKey(m *core.Model, fp string) string {
	return judgeKind + "|" + m.Fingerprint() + "|" + fp
}

// verdictRecord is a judge verdict: the counts of core.Verdict, without
// its test and witness.
type verdictRecord struct {
	Model      string `json:"model"`
	Candidates int    `json:"candidates"`
	Allowed    int    `json:"allowed"`
	Witnesses  int    `json:"witnesses"`
	Observable bool   `json:"observable"`
	// Pruned is the symmetry-pruned share of Candidates (core.Verdict.Pruned
	// at compute time). Omitted when zero, so records from before pruning —
	// or verdicts nothing was pruned from — read as "nothing pruned".
	Pruned int `json:"pruned,omitempty"`
}

// validate checks the counting invariants of core.JudgeWith: witnesses
// are allowed candidates, the test is observable exactly when it has a
// witness, and pruning skips only candidates.
func (r *verdictRecord) validate(string) error {
	if r.Model == "" || r.Witnesses < 0 || r.Witnesses > r.Allowed || r.Allowed > r.Candidates ||
		r.Observable != (r.Witnesses > 0) || r.Pruned < 0 || r.Pruned > r.Candidates {
		return errors.New("service: malformed verdict record")
	}
	return nil
}

// runKey addresses the outcome of running the test with fingerprint fp
// under cfg. Outcomes are deterministic in (test content, chip, incant,
// runs, seed) and independent of parallelism, so parallelism stays out of
// the key.
func runKey(fp string, cfg harness.Config) string {
	return runKind + "|" + fp + "|" + cfg.Chip.ShortName + "|" + cfg.Incant.String() + "|" +
		strconv.Itoa(cfg.Runs) + "|" + strconv.FormatInt(cfg.Seed, 10)
}

// outcomeRecord is a harness outcome: its histogram and counts, without
// test and configuration. Final-state fingerprints in the histogram are
// test-content-derived (registers and locations, no names), matching the
// key's content addressing.
type outcomeRecord struct {
	Histogram map[string]int `json:"histogram"`
	Matches   int            `json:"matches"`
	Runs      int            `json:"runs"`
}

// validate checks the invariants of harness.RunCtx: every run lands in
// exactly one histogram state, matches are a subset of the runs, and the
// runs are the ones key asked for (runKey's fifth field).
func (r *outcomeRecord) validate(key string) error {
	sum := 0
	for _, n := range r.Histogram {
		if n < 1 || n > r.Runs-sum {
			sum = -1
			break
		}
		sum += n
	}
	f := strings.Split(key, "|")
	if r.Runs <= 0 || r.Matches < 0 || r.Matches > r.Runs || sum != r.Runs ||
		len(f) != 6 || f[4] != strconv.Itoa(r.Runs) {
		return errors.New("service: malformed outcome record")
	}
	return nil
}

// repairKey addresses the fence repair of the test with fingerprint fp
// under m.
func repairKey(m *core.Model, fp string) string {
	return repairKind + "|" + m.Fingerprint() + "|" + fp
}

// repairRecord is a fence-repair synthesis result: the verified actions
// and the oracle-checked ledger, all expressed in thread/instruction
// indices. The repaired source is deliberately not stored; the serving
// replica reconstructs it by re-applying the actions to the requesting
// test, which is deterministic.
type repairRecord struct {
	Model    string                   `json:"model"`
	Verified bool                     `json:"verified"`
	Actions  []analysis.RepairAction  `json:"actions,omitempty"`
	Attempts []analysis.RepairAttempt `json:"attempts,omitempty"`
	Reason   string                   `json:"reason,omitempty"`
}

// validate checks that the record names its model; the actions are
// checked when they are re-applied to the requesting test.
func (r *repairRecord) validate(string) error {
	if r.Model == "" {
		return errors.New("service: malformed repair record")
	}
	return nil
}

// cachedLookup answers key through every layer of the fleet cache:
// memory LRU (with singleflight — concurrent requesters join one
// leader), then the persistent store, then the key's owning peer under
// the consistent-hash ring, then compute. The singleflight entry is held
// across the disk and remote paths too, so N concurrent local requests
// for a remote key cost one peer fetch, not N. A freshly computed record
// is persisted locally and replicated to its owner; a peer-fetched one
// is persisted locally (the disk is a cache of permanent facts — warming
// it is always sound). Peer failure of any kind degrades to local
// compute: a down replica costs latency, never availability.
func cachedLookup[R record](s *Server, ctx context.Context, key string, compute func() (R, error)) (R, source, error) {
	tr := obs.FromContext(ctx)
	var lookupStart time.Time
	if tr.Enabled() {
		lookupStart = time.Now()
	}
	src := srcCompute
	var computeDur time.Duration
	val, cached, err := s.cache.Do(ctx, key, func() (any, error) {
		if s.store != nil {
			if b, ok := s.store.Get(key); ok {
				if rec, derr := decodeRecord(key, b); derr == nil {
					src = srcDisk
					s.met.diskHits.Add(1)
					return rec, nil
				}
				// Invalid record: fall through and recompute; the Put
				// below supersedes it (append-only, newest record wins).
			}
		}
		r := s.ring.Load()
		var owner string
		if r != nil {
			if o := r.owner(key); o != "" && o != r.self {
				owner = o
			}
		}
		if owner != "" {
			switch b, perr := s.peerFetch(ctx, owner, key); {
			case perr != nil:
				s.met.peerErrors.Add(1)
			case b == nil:
				s.met.peerMisses.Add(1)
			default:
				if rec, derr := decodeRecord(key, b); derr == nil {
					src = srcPeer
					s.met.peerHits.Add(1)
					if s.store != nil {
						if serr := s.store.Put(key, b); serr != nil {
							s.logf("store: %v", serr)
						}
					}
					return rec, nil
				}
				s.met.peerErrors.Add(1)
			}
		}
		t0 := time.Now()
		rec, err := compute()
		if err != nil {
			return nil, err
		}
		computeDur = time.Since(t0)
		s.met.computations.Add(1)
		s.met.computeSeconds.Observe(computeDur.Seconds())
		s.retry.observe(computeDur)
		if b, eerr := json.Marshal(rec); eerr == nil {
			if s.store != nil {
				if serr := s.store.Put(key, b); serr != nil {
					s.logf("store: %v", serr)
				}
			}
			if owner != "" {
				if perr := s.peerPush(ctx, owner, key, b); perr != nil {
					s.met.peerErrors.Add(1)
				} else {
					s.met.peerPushes.Add(1)
				}
			}
		}
		return rec, nil
	})
	if err != nil {
		var zero R
		return zero, srcCompute, err
	}
	if cached {
		src = srcMemory
	}
	s.met.lookupSource[src].Add(1)
	if tr.Enabled() {
		// The lookup phase is everything this call spent that was not the
		// pipeline compute itself: the memory/disk/peer tier walk, record
		// encode/persist/replicate overhead, and — for a singleflight
		// joiner — the wait for the in-flight leader.
		if d := time.Since(lookupStart) - computeDur; d > 0 {
			tr.AddPhase(obs.PhaseLookup, d)
		}
	}
	return val.(R), src, nil
}
