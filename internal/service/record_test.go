package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRecordBytesGolden pins the cache's persisted format: one record of
// each kind (judge, run, repair), computed through a store-backed server,
// must sit under exactly these key strings with exactly these record
// bytes — served from memory by the computing server, then from disk by
// a fresh server on the same store. The literals were captured from a
// store written before the record kinds shared one abstraction, so a
// store written by any earlier binary keeps serving.
func TestRecordBytesGolden(t *testing.T) {
	golden := []struct{ key, record string }{
		{"judge|53f4ac4d7cb3783b5258227cb8ffa8c91c6ee325bd47545cf60204c12bdfb5f8|8c00cd225d5043ddefdde02117a34cd83ae54fd3369e823cdfb82a592df4dd4a",
			`{"model":"PTX","candidates":4,"allowed":4,"witnesses":1,"observable":true}`},
		{"run|1669a648b6ad04ec69eae1a9c0df43def0db0c8adce6bed24ab75fcf9c9f06ca|Titan|ms+ts+tr|200|5",
			`{"histogram":{"1:r1=0 1:r2=0 x=1 y=1":75,"1:r1=0 1:r2=1 x=1 y=1":82,"1:r1=1 1:r2=0 x=1 y=1":1,"1:r1=1 1:r2=1 x=1 y=1":42},"matches":1,"runs":200}`},
		{"repair|53f4ac4d7cb3783b5258227cb8ffa8c91c6ee325bd47545cf60204c12bdfb5f8|a724592a674bcdcfa7512a1395550ac480dedc7396abe39a70c0a56f9cf41c6b",
			`{"model":"PTX","verified":true,"actions":[{"kind":"strengthen","thread":0,"index":1,"scope":"gl","old_scope":"cta"},{"kind":"strengthen","thread":1,"index":1,"scope":"gl","old_scope":"cta"}],"attempts":[{"actions":[{"kind":"strengthen","thread":0,"index":1,"scope":"gl","old_scope":"cta"},{"kind":"strengthen","thread":1,"index":1,"scope":"gl","old_scope":"cta"}],"outcome":"verified"},{"actions":[{"kind":"strengthen","thread":1,"index":1,"scope":"gl","old_scope":"cta"}],"outcome":"still-observable"},{"actions":[{"kind":"strengthen","thread":0,"index":1,"scope":"gl","old_scope":"cta"}],"outcome":"still-observable"}]}`},
	}
	dir := t.TempDir()
	serve := func() (*Server, *httptest.Server) {
		t.Helper()
		s, err := New(Config{StoreDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}
	check := func(tier, base string) {
		t.Helper()
		for _, g := range golden {
			resp, err := http.Get(objectURL(base, g.key))
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || body != g.record {
				t.Errorf("%s: GET %s = %d\n got %s\nwant %s", tier, g.key, resp.StatusCode, body, g.record)
			}
		}
	}

	s, ts := serve()
	ctx := context.Background()
	client := NewClient(ts.URL)
	if _, err := client.Judge(ctx, JudgeRequest{TestRef: TestRef{Test: "coRR"}, Model: "ptx"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(ctx, RunRequest{TestRef: TestRef{Test: "mp"}, Chip: "Titan", Runs: 200, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Repair(ctx, RepairRequest{TestRef: TestRef{Test: "mp-L1+membar.ctas"}}); err != nil {
		t.Fatal(err)
	}
	check("memory", ts.URL)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts = serve()
	defer s.Close()
	defer ts.Close()
	check("disk", ts.URL)
	if st := s.storeStats(); st == nil || st.Entries != len(golden) {
		t.Errorf("store stats = %+v, want %d entries", st, len(golden))
	}
}

// TestRecordRoundTrip pins the record codec of every kind: a valid record
// decodes under its key and re-encodes to the same bytes, and a record
// that breaks an invariant the engine guarantees is rejected, so the
// cache treats it as a miss and POST /v1/object refuses it. Verdict
// records written before pruning existed (no pruned field) decode as
// "nothing pruned".
func TestRecordRoundTrip(t *testing.T) {
	const (
		judge  = "judge|m|t"
		run    = "run|t|Titan|ms+ts+tr|4|1"
		repair = "repair|m|t"
	)
	for _, tc := range []struct {
		key, body string
		ok        bool
	}{
		{judge, `{"model":"PTX","candidates":24,"allowed":18,"witnesses":6,"observable":true,"pruned":20}`, true},
		{judge, `{"model":"PTX","candidates":24,"allowed":18,"witnesses":6,"observable":true}`, true},
		{judge, `{"model":"PTX","candidates":4,"allowed":0,"witnesses":0,"observable":false}`, true},
		{judge, `{"model":"PTX","candidates":4,"pruned":5}`, false},
		{judge, `{"model":"PTX","candidates":4,"pruned":-1}`, false},
		{judge, `{}`, false},
		{judge, `{"model":"PTX","candidates":4,"allowed":5,"witnesses":1,"observable":true}`, false},
		{judge, `{"model":"PTX","candidates":4,"allowed":2,"witnesses":3,"observable":true}`, false},
		{judge, `{"model":"PTX","candidates":4,"allowed":2,"witnesses":-1,"observable":false}`, false},
		{judge, `{"model":"PTX","candidates":4,"allowed":2,"witnesses":0,"observable":true}`, false},
		{judge, `{"model":"PTX","candidates":4,"allowed":2,"witnesses":1,"observable":false}`, false},

		{run, `{"histogram":{"x=0":3,"x=1":1},"matches":1,"runs":4}`, true},
		{run, `{"histogram":{"x=0":4},"matches":0,"runs":4}`, true},
		{run, `{"matches":0,"runs":4}`, false},
		{run, `{"histogram":{},"matches":0,"runs":0}`, false},
		{run, `{"histogram":{"x=0":3,"x=1":1},"matches":5,"runs":4}`, false},
		{run, `{"histogram":{"x=0":3,"x=1":1},"matches":-1,"runs":4}`, false},
		{run, `{"histogram":{"x=0":4,"x=1":0},"matches":0,"runs":4}`, false},
		{run, `{"histogram":{"x=0":5,"x=1":-1},"matches":0,"runs":4}`, false},
		{run, `{"histogram":{"x=0":2,"x=1":1},"matches":1,"runs":4}`, false},
		{run, `{"histogram":{"x=0":5},"matches":0,"runs":5}`, false},

		{repair, `{"model":"PTX","verified":true,"actions":[{"kind":"strengthen","thread":0,"index":1,"scope":"gl","old_scope":"cta"}]}`, true},
		{repair, `{"model":"PTX","verified":false,"reason":"no fence helps"}`, true},
		{repair, `{}`, false},

		{"malware|x", `{"model":"PTX"}`, false},
	} {
		rec, err := decodeRecord(tc.key, []byte(tc.body))
		if !tc.ok {
			if err == nil {
				t.Errorf("%s %s: invalid record accepted", tc.key, tc.body)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s %s: %v", tc.key, tc.body, err)
			continue
		}
		if b, err := json.Marshal(rec); err != nil || string(b) != tc.body {
			t.Errorf("%s: round trip = %s, %v; want %s", tc.key, b, err, tc.body)
		}
	}
}
