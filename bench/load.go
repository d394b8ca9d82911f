package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/weakgpu/gpulitmus/internal/service"
)

// server is an in-process gpulitmusd on a loopback port.
type server struct {
	srv      *service.Server
	base     string
	storeDir string // removed on close; empty in pure-memory mode
	cancel   context.CancelFunc
	done     chan error
	client   *http.Client
}

// startServer starts a service.Server on 127.0.0.1. A non-empty workDir
// gives it a persistent store in a fresh directory under workDir.
func startServer(workDir string, clients int) (*server, error) {
	s := &server{}
	cfg := service.Config{}
	if workDir != "" {
		dir, err := os.MkdirTemp(workDir, "store-")
		if err != nil {
			return nil, fmt.Errorf("store dir: %w", err)
		}
		s.storeDir = dir
		cfg.StoreDir = dir
	}
	srv, err := service.New(cfg)
	if err != nil {
		s.removeStore()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		s.removeStore()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.srv, s.base, s.cancel = srv, "http://"+ln.Addr().String(), cancel
	s.done = make(chan error, 1)
	go func() { s.done <- srv.Serve(ctx, ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	return s, nil
}

func (s *server) removeStore() {
	if s.storeDir != "" {
		os.RemoveAll(s.storeDir)
	}
}

// close stops the server, waits for it to exit and removes its store.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	s.cancel()
	err := <-s.done
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	s.removeStore()
	return err
}

// do sends one request and reads the whole response.
func (s *server) do(r request) (status int, body []byte, err error) {
	var buf bytes.Buffer
	status, err = s.doInto(r, &buf)
	return status, buf.Bytes(), err
}

// doInto sends one request and reads the whole response into buf, which
// it resets first, so a loop that reuses buf makes no garbage of its own
// for the body.
func (s *server) doInto(r request, buf *bytes.Buffer) (status int, err error) {
	buf.Reset()
	method := http.MethodPost
	var rd io.Reader
	if r.body == nil {
		method = http.MethodGet
	} else {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(method, s.base+r.path, rd)
	if err != nil {
		return 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// stats fetches /v1/stats.
func (s *server) stats() (service.StatsResponse, error) {
	var st service.StatsResponse
	status, body, err := s.do(request{path: "/v1/stats"})
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// result is one completed request of a timed loop.
type result struct {
	index   int
	status  int
	body    []byte
	latency time.Duration
	end     time.Duration // when the answer came, from the start of the loop
	err     error         // transport error
}

// ok reports whether the request got a 2xx answer.
func (r result) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// maxInterned bounds the distinct answer bodies one client interns.
const maxInterned = 1024

// Sizes of one client's mappings. Only the pages a run touches become
// resident; a run that would need more fails.
const (
	maxRecords   = 1 << 21
	maxBodyBytes = 1 << 30
)

// record is what a timed loop keeps of one request. It holds no pointer,
// so it can live outside the Go heap.
type record struct {
	index, status  int64
	latency, end   time.Duration
	bodyOff, bodyN int64 // the answer, in recorder.bodies
}

// recorder keeps one client's records and answer bodies in memory mapped
// outside the Go heap. Kept on the heap, they would grow it through the
// timed window and change how often the in-process server's garbage
// collector runs while it is being measured.
type recorder struct {
	recs   []record
	bodies []byte
	nrec   int
	nbody  int64
	seen   map[string][2]int64 // identical answers share one copy
	errs   map[int]error       // transport errors by record; rare
	mem    [2][]byte           // the mappings
}

func newRecorder() (*recorder, error) {
	recs, err := mapAnon(maxRecords * int(unsafe.Sizeof(record{})))
	if err != nil {
		return nil, err
	}
	bodies, err := mapAnon(maxBodyBytes)
	if err != nil {
		syscall.Munmap(recs)
		return nil, err
	}
	return &recorder{
		recs:   unsafe.Slice((*record)(unsafe.Pointer(&recs[0])), maxRecords),
		bodies: bodies,
		seen:   make(map[string][2]int64),
		errs:   make(map[int]error),
		mem:    [2][]byte{recs, bodies},
	}, nil
}

func mapAnon(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
}

// add records one request; it reports false when the recorder is full.
func (rc *recorder) add(index, status int, body []byte, lat, end time.Duration, err error) bool {
	span, ok := rc.seen[string(body)]
	if !ok {
		if rc.nrec == len(rc.recs) || rc.nbody+int64(len(body)) > int64(len(rc.bodies)) {
			return false
		}
		span = [2]int64{rc.nbody, int64(len(body))}
		rc.nbody += int64(copy(rc.bodies[rc.nbody:], body))
		if len(rc.seen) < maxInterned {
			rc.seen[string(body)] = span
		}
	} else if rc.nrec == len(rc.recs) {
		return false
	}
	if err != nil {
		rc.errs[rc.nrec] = err
	}
	rc.recs[rc.nrec] = record{int64(index), int64(status), lat, end, span[0], span[1]}
	rc.nrec++
	return true
}

// results copies the records into out (indexed from first), bodies onto
// the heap, and unmaps the recorder's memory.
func (rc *recorder) results(out []result, first int) {
	copies := make(map[int64][]byte)
	for k, r := range rc.recs[:rc.nrec] {
		body, ok := copies[r.bodyOff]
		if !ok {
			body = bytes.Clone(rc.bodies[r.bodyOff : r.bodyOff+r.bodyN])
			copies[r.bodyOff] = body
		}
		out[r.index-int64(first)] = result{index: int(r.index), status: int(r.status), body: body,
			latency: r.latency, end: r.end, err: rc.errs[k]}
	}
	rc.free()
}

func (rc *recorder) free() {
	for _, m := range rc.mem {
		syscall.Munmap(m)
	}
}

// drive runs a closed loop: each of clients goroutines sends its next
// request only when the previous one has answered, taking request indices
// from a shared counter starting at first, until d has passed or, with
// n > 0, n requests have been sent. With pairs set a client stops only
// before an even index, so a one-client loop that alternates two request
// kinds always completes whole pairs. It returns every result in index
// order and the wall time from the first send to the last answer.
func drive(s *server, clients, first, n int, d time.Duration, pairs bool, next func(i int) request) ([]result, time.Duration, error) {
	var counter atomic.Int64
	counter.Store(int64(first))
	recs := make([]*recorder, clients)
	for c := range recs {
		var err error
		if recs[c], err = newRecorder(); err != nil {
			for _, rc := range recs[:c] {
				rc.free()
			}
			return nil, 0, fmt.Errorf("recorder: %w", err)
		}
	}
	var full atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rc *recorder) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(counter.Load())
				if full.Load() || (n > 0 && i >= first+n) || (time.Since(start) >= d && (!pairs || i%2 == 0)) {
					return
				}
				if !counter.CompareAndSwap(int64(i), int64(i+1)) {
					continue
				}
				req := next(i)
				t0 := time.Now()
				status, err := s.doInto(req, &buf)
				t1 := time.Now()
				if !rc.add(i, status, buf.Bytes(), t1.Sub(t0), t1.Sub(start), err) {
					full.Store(true)
					return
				}
			}
		}(recs[c])
	}
	wg.Wait()
	wall := time.Since(start)
	if full.Load() {
		for _, rc := range recs {
			rc.free()
		}
		return nil, 0, fmt.Errorf("more requests than a recorder holds")
	}
	total := 0
	for _, rc := range recs {
		total += rc.nrec
	}
	out := make([]result, total)
	for _, rc := range recs {
		rc.results(out, first)
	}
	return out, wall, nil
}

// failures collects per-request check failures; the first few are kept
// for the report.
type failures struct {
	n     int
	notes []string
}

func (f *failures) add(i int, err error) {
	f.n++
	if len(f.notes) < 5 {
		f.notes = append(f.notes, fmt.Sprintf("request %d: %v", i, err))
	}
}

// transportErr describes a request that did not get a 2xx answer.
func transportErr(r result) error {
	if r.err != nil {
		return r.err
	}
	msg := bytes.TrimSpace(r.body)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Errorf("status %d: %s", r.status, msg)
}
