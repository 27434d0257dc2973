// Package peer is the multi-replica half of Tessel's serving tier: a
// replica-aware cache layer that routes each placement fingerprint to
// owner replicas on a deterministic consistent-hash ring and tries a
// bounded, failure-armored peer fetch before paying a cold search.
//
// The pieces:
//
//   - Ring (this file): virtual-node consistent hashing over the static
//     replica list. Every replica builds the identical ring from the same
//     -peers list, so "which replicas probably have this fingerprint" is a
//     pure function of the fingerprint — no coordination, no metadata
//     service. Ejection is a local health view: an ejected peer's virtual
//     nodes are skipped during the ownership walk, which moves only that
//     peer's keys (the classic consistent-hashing property).
//   - Breaker (breaker.go): a per-peer circuit breaker so a dead or
//     flapping peer costs one failed round, not a timeout per request.
//   - Client (client.go): deadline-boxed fetches with jittered backoff
//     retries, validated through the engine's snapshot codec; the engine's
//     singleflight leader inserts what it serves — implements
//     engine.PeerTier.
//   - Prober (prober.go): async health checks that eject and readmit
//     peers from the ring.
//   - Server (server.go): the HTTP interchange peers fetch from
//     (GET /v1/peer/entry, GET /v1/peer/health).
//
// The breaker and the prober both answer "is this peer usable", and they
// are deliberately two state machines, not one, because they detect
// different faults: a peer that answers /v1/peer/health with 200 yet serves
// torn or mismatching entries is caught only by the fetch-driven breaker,
// and a peer that is down is caught by the prober before any request pays
// an attempt timeout on it. Both are fault-detection state; merging them
// would lose one of the two signals.
//
// Failure semantics, in one line: a peer that hangs, lies, dies, or flaps
// can cost a replica a bounded slice of latency on a cold miss; it can
// never poison the cache, never fail a request that a lone replica would
// have served, and never make a hot (cached) request slower at all.
package peer

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the per-peer virtual node count. 192 points per
// peer keeps the max/min ownership ratio comfortably under 1.3 for small
// fleets (see the ring property test) while the whole ring for a
// 16-replica fleet stays ~3k points.
const DefaultVirtualNodes = 192

// ringPoint is one virtual node: a hash position owned by a peer.
type ringPoint struct {
	hash uint64
	peer int // index into Ring.peers
}

// Ring is a deterministic consistent-hash ring over a static peer list.
// Construction is a pure function of the (sorted) peer list and the
// virtual-node count, so every replica given the same -peers flag computes
// identical ownership. Ejection/readmission only toggles a local bitmap —
// the points never move, which is what makes ejection stable (only the
// ejected peer's keys change owners).
type Ring struct {
	mu      sync.RWMutex
	peers   []string // sorted, unique
	ejected []bool   // parallel to peers; true = skipped in ownership walks
	points  []ringPoint
}

// NewRing builds the ring with DefaultVirtualNodes points per peer. The peer
// list is deduplicated and sorted so the ring is independent of flag order.
func NewRing(peers []string) (*Ring, error) {
	seen := map[string]bool{}
	var uniq []string
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("peer: empty peer address")
		}
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("peer: ring needs at least one peer")
	}
	sort.Strings(uniq)
	r := &Ring{
		peers:   uniq,
		ejected: make([]bool, len(uniq)),
		points:  make([]ringPoint, 0, len(uniq)*DefaultVirtualNodes),
	}
	for i, p := range uniq {
		for v := 0; v < DefaultVirtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashPoint(p + "#" + strconv.Itoa(v)), peer: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash collisions between distinct peers' points are astronomically
		// unlikely but must still order deterministically.
		return r.points[a].peer < r.points[b].peer
	})
	return r, nil
}

// hashPoint maps a label (virtual-node name or fingerprint) to a ring
// position: the first 8 bytes of its SHA-256, matching the fingerprint
// hash family so placement keys spread as uniformly as the vnodes.
func hashPoint(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owners returns up to n distinct healthy peers responsible for the
// fingerprint, in ring-walk order (the first is the primary owner). The
// walk skips ejected peers, so ejection reassigns exactly the ejected
// peer's slots and leaves every other fingerprint's owner list unchanged.
func (r *Ring) Owners(fingerprint string, n int) []string {
	if n <= 0 {
		return nil
	}
	h := hashPoint(fingerprint)
	r.mu.RLock()
	defer r.mu.RUnlock()
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	taken := make([]bool, len(r.peers))
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		pt := r.points[(start+i)%len(r.points)]
		if r.ejected[pt.peer] || taken[pt.peer] {
			continue
		}
		taken[pt.peer] = true
		owners = append(owners, r.peers[pt.peer])
	}
	return owners
}

// index returns the peer's slot, or -1 when it is not a ring member.
// Callers hold r.mu.
func (r *Ring) index(peer string) int {
	i := sort.SearchStrings(r.peers, peer)
	if i < len(r.peers) && r.peers[i] == peer {
		return i
	}
	return -1
}

// Contains reports ring membership.
func (r *Ring) Contains(peer string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.index(peer) >= 0
}

// Eject removes a peer from ownership walks; it reports whether the call
// changed anything (false for unknown or already-ejected peers).
func (r *Ring) Eject(peer string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.index(peer)
	if i < 0 || r.ejected[i] {
		return false
	}
	r.ejected[i] = true
	return true
}

// Readmit restores an ejected peer to ownership walks.
func (r *Ring) Readmit(peer string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.index(peer)
	if i < 0 || !r.ejected[i] {
		return false
	}
	r.ejected[i] = false
	return true
}

// Peers returns the ring members in sorted order (a copy).
func (r *Ring) Peers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.peers))
	copy(out, r.peers)
	return out
}

// Healthy returns how many members are not ejected.
func (r *Ring) Healthy() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, e := range r.ejected {
		if !e {
			n++
		}
	}
	return n
}
