package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/litmus"
)

// newFleetServer builds a Server over httptest and returns it with its
// base URL and a client. Peers are wired afterwards via SetPeers once
// every replica's URL is known.
func newFleetServer(t *testing.T, cfg Config) (*Server, string, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL, NewClient(ts.URL)
}

// corpusNames returns the paper corpus by test name — the overlapping
// workload labs re-judge constantly.
func corpusNames(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, test := range litmus.PaperTests() {
		names = append(names, test.Name)
	}
	if len(names) < 12 {
		t.Fatalf("paper corpus has only %d tests", len(names))
	}
	return names
}

// TestStoreWarmRestartServesFromDisk is the persistence acceptance pin:
// a killed-and-restarted replica serves its pre-restart verdicts from
// disk byte-identically with zero re-enumeration.
func TestStoreWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	names := []string{"coRR", "mp", "sb"}
	runReq := RunRequest{TestRef: TestRef{Test: "coRR"}, Chip: "Titan", Runs: 500, Seed: 9}

	verdicts := map[string]JudgeResult{}
	var runOutput string
	{
		s1, _, c1 := newFleetServer(t, Config{StoreDir: dir})
		ctx := context.Background()
		for _, name := range names {
			res, err := c1.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: name}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached {
				t.Fatalf("%s: cold judge cannot be cached", name)
			}
			verdicts[name] = *res
		}
		run, err := c1.Run(ctx, runReq)
		if err != nil {
			t.Fatal(err)
		}
		runOutput = run.Output
		st, err := c1.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Computations != int64(len(names))+1 {
			t.Fatalf("pre-restart computations = %d, want %d", st.Computations, len(names)+1)
		}
		if st.Store == nil || st.Store.Entries != len(names)+1 {
			t.Fatalf("store stats = %+v, want %d entries", st.Store, len(names)+1)
		}
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": a fresh Server over the same store directory. Every
	// answer must come from disk — byte-identical, zero enumeration.
	s2, _, c2 := newFleetServer(t, Config{StoreDir: dir})
	ctx := context.Background()
	for _, name := range names {
		res, err := c2.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: name}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Errorf("%s: warm-restart judge must be served from disk", name)
		}
		if res.Source != srcDisk.String() {
			t.Errorf("%s: warm-restart judge source = %q, want disk", name, res.Source)
		}
		want := verdicts[name]
		got := *res
		got.Cached, want.Cached = false, false
		got.Source, want.Source = "", ""
		if got != want {
			t.Errorf("%s: post-restart result differs:\n got %+v\nwant %+v", name, got, want)
		}
	}
	run, err := c2.Run(ctx, runReq)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Cached || run.Output != runOutput {
		t.Errorf("post-restart run: cached=%v, output identical=%v", run.Cached, run.Output == runOutput)
	}
	if run.Source != srcDisk.String() {
		t.Errorf("post-restart run source = %q, want disk", run.Source)
	}
	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Computations != 0 {
		t.Errorf("warm restart re-enumerated: computations = %d, want 0", st.Computations)
	}
	if st.Store == nil || st.Store.Hits != int64(len(names))+1 {
		t.Errorf("store stats = %+v, want %d disk hits", st.Store, len(names)+1)
	}
	if got := metricValue(t, s2.renderMetrics(), "gpulitmusd_disk_hits_total"); got != int64(len(names))+1 {
		t.Errorf("disk_hits_total = %d", got)
	}
}

// TestStoreDisabledPureMemory: without StoreDir the service runs the
// pre-fleet pure-memory path — no store section in stats, no store
// series on /metrics, caching still intact.
func TestStoreDisabledPureMemory(t *testing.T) {
	_, client := newTestService(t, Config{})
	ctx := context.Background()
	if _, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "coRR"}}); err != nil {
		t.Fatal(err)
	}
	res, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "coRR"}})
	if err != nil || !res.Cached {
		t.Fatalf("memory path broken: %+v, %v", res, err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Store != nil {
		t.Errorf("store stats present without a store: %+v", st.Store)
	}
	if st.Peer != nil {
		t.Errorf("peer stats present without a fleet: %+v", st.Peer)
	}
}

// TestFleetConvergesToNearZeroRecomputation is the load-test acceptance
// pin: three in-process replicas with disk stores and a consistent-hash
// ring serve an overlapping litmus corpus; on the second pass — every
// replica judging the full corpus — at least 95% of answers come from
// a non-compute layer (memory, disk or peer), and every replica's
// verdicts are byte-identical.
func TestFleetConvergesToNearZeroRecomputation(t *testing.T) {
	const n = 3
	servers := make([]*Server, n)
	clients := make([]*Client, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		servers[i], urls[i], clients[i] = newFleetServer(t, Config{StoreDir: t.TempDir(), MaxInFlight: 32})
	}
	for i := 0; i < n; i++ {
		servers[i].SetPeers(urls[i], urls)
	}
	names := corpusNames(t)
	ctx := context.Background()

	judge := func(i int, name string) JudgeResult {
		t.Helper()
		res, err := clients[i].Judge(ctx, JudgeRequest{TestRef: TestRef{Test: name}})
		if err != nil {
			t.Fatalf("replica %d judging %s: %v", i, name, err)
		}
		return *res
	}
	computations := func() int64 {
		var total int64
		for _, s := range servers {
			total += s.met.computations.Load()
		}
		return total
	}

	// Pass 1: overlapping slices — each replica serves two thirds of the
	// corpus, so every test is judged by exactly two replicas.
	sliceLen := 2 * len(names) / 3
	want := map[string]string{}
	for i := 0; i < n; i++ {
		for k := 0; k < sliceLen; k++ {
			name := names[(i*len(names)/n+k)%len(names)]
			res := judge(i, name)
			if prev, ok := want[name]; ok && prev != res.Verdict {
				t.Fatalf("%s: replica %d verdict %q differs from %q", name, i, res.Verdict, prev)
			}
			want[name] = res.Verdict
		}
	}
	if got := computations(); got > int64(len(names)) {
		t.Errorf("pass 1 computed %d times for %d distinct tests — fleet singleflight leaked", got, len(names))
	}

	// Pass 2: every replica judges the full corpus. Memory (pass-1 keys),
	// disk (own store) and peers (the owner got every record pushed)
	// must absorb nearly everything.
	before := computations()
	total, computed := 0, 0
	bySource := map[string]int{}
	for i := 0; i < n; i++ {
		for _, name := range names {
			res := judge(i, name)
			total++
			if !res.Cached {
				computed++
			}
			bySource[res.Source]++
			if res.Cached == (res.Source == srcCompute.String()) {
				t.Errorf("%s: replica %d cached=%v contradicts source=%q", name, i, res.Cached, res.Source)
			}
			if res.Verdict != want[name] {
				t.Errorf("%s: replica %d pass-2 verdict %q differs from %q", name, i, res.Verdict, want[name])
			}
		}
	}
	delta := computations() - before
	nonCompute := float64(total-computed) / float64(total)
	t.Logf("pass 2: %d answers, %d computed (%.1f%% non-compute), computations delta %d", total, computed, 100*nonCompute, delta)
	if nonCompute < 0.95 {
		t.Errorf("pass 2 non-compute rate %.1f%% < 95%%", 100*nonCompute)
	}
	if delta != int64(computed) {
		t.Errorf("cached markers (%d computed) disagree with computation counters (%d)", computed, delta)
	}

	// The fleet actually exchanged records: peer hits and pushes are
	// visible on /metrics across the replicas.
	var peerHits, peerPushes int64
	for i := range servers {
		text, err := clients[i].MetricsText(ctx)
		if err != nil {
			t.Fatal(err)
		}
		peerHits += metricValue(t, text, "gpulitmusd_peer_hits_total")
		peerPushes += metricValue(t, text, "gpulitmusd_peer_pushes_total")
	}
	if peerHits == 0 {
		t.Error("no peer hits across the fleet — sharding never engaged")
	}
	// The per-result source markers agree with the fleet-level counters:
	// peer-tier answers were reported, and every tier name is legal.
	t.Logf("pass 2 sources: %v", bySource)
	if bySource[srcPeer.String()] == 0 {
		t.Error("no pass-2 result reported source=peer despite peer hits on /metrics")
	}
	for src := range bySource {
		switch src {
		case srcMemory.String(), srcDisk.String(), srcPeer.String(), srcCompute.String():
		default:
			t.Errorf("illegal source marker %q", src)
		}
	}
	if peerPushes == 0 {
		t.Error("no peer pushes across the fleet — computed records were not replicated to their owners")
	}
}

// TestPeerDownDegradesToLocalCompute: with one replica in the ring dead,
// every request still succeeds (local compute), errors are counted, and
// nothing surfaces as a 5xx.
func TestPeerDownDegradesToLocalCompute(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	s, selfURL, client := newFleetServer(t, Config{StoreDir: t.TempDir()})
	s.SetPeers(selfURL, []string{selfURL, deadURL})

	ctx := context.Background()
	names := corpusNames(t)
	for _, name := range names {
		res, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: name}})
		if err != nil {
			t.Fatalf("judging %s with a dead peer: %v", name, err)
		}
		if res.Cached {
			t.Errorf("%s: cold judge cannot be cached", name)
		}
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Peer == nil {
		t.Fatal("peer stats missing")
	}
	if st.Peer.Errors == 0 {
		t.Error("no peer errors counted — either the ring never placed a key on the dead replica or failures are invisible")
	}
	if st.Peer.Hits != 0 {
		t.Errorf("impossible peer hits from a dead replica: %d", st.Peer.Hits)
	}
	if st.Computations != int64(len(names)) {
		t.Errorf("computations = %d, want %d (every key computed locally)", st.Computations, len(names))
	}
}

// TestObjectEndpoint: the internal fleet endpoint serves and accepts raw
// records, answers 404 for unknown keys, and rejects keys or bodies it
// would never have produced.
func TestObjectEndpoint(t *testing.T) {
	s, base, client := newFleetServer(t, Config{StoreDir: t.TempDir()})
	ctx := context.Background()
	res, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "coRR"}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.model("ptx")
	if err != nil {
		t.Fatal(err)
	}
	test, err := litmus.ByName("coRR")
	if err != nil {
		t.Fatal(err)
	}
	key := "judge|" + m.Fingerprint() + "|" + test.Fingerprint()

	get := func(key string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(objectURL(base, key))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp, readAll(t, resp)
	}
	resp, body := get(key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("object GET = %d", resp.StatusCode)
	}
	if !strings.Contains(body, fmt.Sprintf(`"candidates":%d`, res.Candidates)) {
		t.Errorf("object record %q missing candidates", body)
	}
	if resp, _ := get("judge|nope|nothere"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("malware|x"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("foreign key prefix = %d, want 400", resp.StatusCode)
	}

	// Push a record for a different key and read it back.
	otherKey := "judge|" + m.Fingerprint() + "|0000synthetic"
	pushResp, err := http.Post(objectURL(base, otherKey), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	pushResp.Body.Close()
	if pushResp.StatusCode != http.StatusNoContent {
		t.Fatalf("object POST = %d", pushResp.StatusCode)
	}
	if resp, got := get(otherKey); resp.StatusCode != http.StatusOK || got != body {
		t.Errorf("pushed record readback = %d, %q", resp.StatusCode, got)
	}
	// Garbage bodies are refused: not JSON, not a record of the key's
	// kind, or a verdict whose counts break the engine's invariants.
	for _, bad := range []string{
		"not json",
		"{}",
		`{"model":"PTX","candidates":4,"allowed":2,"witnesses":3,"observable":true}`,
	} {
		badResp, err := http.Post(objectURL(base, otherKey), "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		badResp.Body.Close()
		if badResp.StatusCode != http.StatusBadRequest {
			t.Errorf("garbage POST %s = %d, want 400", bad, badResp.StatusCode)
		}
	}
	if resp, got := get(otherKey); resp.StatusCode != http.StatusOK || got != body {
		t.Errorf("refused POSTs changed the stored record: %d, %q", resp.StatusCode, got)
	}
}

// readAll drains a response body as a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
