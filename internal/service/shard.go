package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"
)

// ---- consistent-hash ring ----------------------------------------------

// vnodesPerPeer is the virtual-node fan-out per replica. 64 vnodes keeps
// placement within a few percent of even for small fleets while the ring
// stays tiny (a fleet of 10 is 640 sorted entries).
const vnodesPerPeer = 64

// ring places cache keys on a replica fleet by consistent hashing:
// every replica (including self) contributes vnodesPerPeer points on a
// uint64 circle and a key belongs to the first point clockwise of its
// hash. Replicas that configure the same peer list — in any order —
// compute identical placements, which is what makes "fetch from the
// owner before computing" coherent fleet-wide.
type ring struct {
	self   string
	peers  []string // normalised, deduped, sorted
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	addr string
}

// normalizePeer canonicalises a replica base URL for ring identity:
// placement must not depend on a trailing slash.
func normalizePeer(addr string) string {
	return strings.TrimRight(strings.TrimSpace(addr), "/")
}

// buildRing constructs the ring for self within peers. Self is added to
// the fleet if the peer list does not already name it, so "-peers lists
// the others" and "-peers lists everyone" both work.
func buildRing(self string, peers []string) *ring {
	self = normalizePeer(self)
	seen := map[string]bool{}
	var fleet []string
	for _, p := range append([]string{self}, peers...) {
		p = normalizePeer(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		fleet = append(fleet, p)
	}
	sort.Strings(fleet)
	r := &ring{self: self, peers: fleet}
	for _, p := range fleet {
		for i := 0; i < vnodesPerPeer; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", p, i)), addr: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// owner returns the replica address a key is placed on.
func (r *ring) owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].addr
}

// size is the number of replicas in the fleet.
func (r *ring) size() int {
	if r == nil {
		return 0
	}
	return len(r.peers)
}

// ---- peer transport -----------------------------------------------------

// objectURL is the internal fleet endpoint on a peer for key.
func objectURL(peer, key string) string {
	return peer + "/v1/object?key=" + url.QueryEscape(key)
}

// peerFetch asks the owning peer for key's record. (nil, nil) means the
// owner answered and does not have it; an error means the owner is down
// or answered garbage — the caller degrades to local compute either way.
// Every round-trip — hit, miss or failure — lands in the
// gpulitmusd_peer_fetch_seconds histogram: a degrading peer shows up as
// latency long before it shows up as errors.
func (s *Server) peerFetch(ctx context.Context, peer, key string) ([]byte, error) {
	defer func(t0 time.Time) {
		s.met.peerFetchSeconds.Observe(time.Since(t0).Seconds())
	}(time.Now())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, objectURL(peer, key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxObjectBytes))
		if err != nil {
			return nil, err
		}
		return body, nil
	case http.StatusNotFound:
		return nil, nil
	default:
		return nil, fmt.Errorf("service: peer %s: %s", peer, resp.Status)
	}
}

// peerPush replicates a freshly computed record to its owning peer, so
// the fleet converges on "the owner has every key" even when requests
// land on non-owners. Push failures are non-fatal — the computing replica
// already has the answer; the fleet just converges more slowly.
func (s *Server) peerPush(ctx context.Context, peer, key string, record []byte) error {
	defer func(t0 time.Time) {
		s.met.peerPushSeconds.Observe(time.Since(t0).Seconds())
	}(time.Now())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, objectURL(peer, key), strings.NewReader(string(record)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("service: peer %s: %s", peer, resp.Status)
	}
	return nil
}
