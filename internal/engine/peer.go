// The engine's half of the multi-replica peer tier: the PeerTier hook the
// singleflight leader consults before paying a cold search, and the
// single-entry wire codec peers exchange cache entries with.
//
// The wire format is deliberately the snapshot format (snapshot.go) scoped
// to one entry — the same checksummed header line and the same JSON body
// with a one-element entries array — so a peer response is validated by
// exactly the machinery that validates a boot restore: header shape, strict
// version token, SHA-256 body checksum, and the full per-entry structural
// re-validation of decodeEntry (placement, fingerprint-vs-key, the
// repetend's constraints over every N, the full schedule's completeness and
// constraints). A lying, torn, or stale peer response therefore degrades to
// a cold search, never to a poisoned cache: a v3 and a v4 replica reject each
// other's entries, so a mixed ring misses and cold-searches mid-upgrade.
//
// Layering: the engine defines the PeerTier interface and internal/peer
// implements it (hash ring, circuit breakers, health prober, HTTP client).
// The engine never imports internal/peer — cmd/tessel wires the two with
// Engine.SetPeerTier — so the cache stays usable without a ring and the
// peer package can use the engine's codec without an import cycle.
package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"tessel/internal/core"
)

// DefaultPeerFetchBudget caps the whole peer-fetch phase of one cold miss
// when Options.PeerFetchBudget is zero. It bounds every retry and backoff
// of every owner attempted, so a hung or flapping peer tier can delay a
// cold search by at most this much — the robustness contract that a peer
// fetch must never make a replica materially slower than serving alone.
const DefaultPeerFetchBudget = 2 * time.Second

// PeerStats is a snapshot of a PeerTier's counters. Stats embeds it, so
// the JSON tags are the /v1/stats wire names.
type PeerStats struct {
	// PeerHits counts fetches that returned a validated entry from a peer.
	PeerHits uint64 `json:"peer_hits"`
	// PeerMisses counts fetch rounds that ended without a peer entry —
	// every owner missed, failed, or was breaker-skipped — and fell through
	// to a cold search.
	PeerMisses uint64 `json:"peer_misses"`
	// PeerErrors counts individual failed fetch attempts: network errors,
	// non-200/404 statuses, and responses rejected by validation.
	PeerErrors uint64 `json:"peer_errors"`
	// PeerRetries counts fetch attempts beyond the first against one peer.
	PeerRetries uint64 `json:"peer_retries"`
	// BreakerOpen counts circuit-breaker transitions to the open state.
	BreakerOpen uint64 `json:"breaker_open"`
	// PeersHealthy is the number of remote peers currently in the ring
	// (configured minus ejected); a gauge, not a counter.
	PeersHealthy int `json:"peers_healthy"`
}

// PeerTier is a replica-aware cache tier the engine consults on a cold
// miss before running the search. Fetch returns (nil, nil) on a clean miss;
// any error is treated exactly like a miss by the engine (the tier keeps
// its own failure accounting), so a misbehaving tier can cost bounded time
// but never correctness.
type PeerTier interface {
	// Fetch tries to obtain the cache entry for key (whose placement
	// fingerprint is fingerprint, the ring routing identity) from owner
	// replicas. A returned result must already be validated, by
	// DecodePeerEntry; the singleflight leader inserts what it serves.
	Fetch(ctx context.Context, fingerprint, key string) (*core.Result, error)
	// Stats reports the tier's counters.
	Stats() PeerStats
}

// SetPeerTier installs (or, with nil, removes) the replica peer tier the
// engine consults on cold misses. Typically called once at serving startup,
// after the tier's client is constructed around this engine.
func (e *Engine) SetPeerTier(t PeerTier) {
	e.mu.Lock()
	e.peers = t
	e.mu.Unlock()
}

// peerTier returns the installed tier, if any.
func (e *Engine) peerTier() PeerTier {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peers
}

// peerFetch runs the bounded peer-fetch phase of a cold miss: the tier gets
// the remaining request deadline capped by the engine's peer budget, and
// any failure — error, timeout, miss — simply returns nil so the leader
// falls through to the cold search with whatever deadline remains.
func (e *Engine) peerFetch(ctx context.Context, fingerprint, key string, tier PeerTier) *core.Result {
	if ctx.Err() != nil {
		return nil
	}
	fctx, cancel := context.WithTimeout(ctx, e.peerBudget)
	defer cancel()
	res, err := tier.Fetch(fctx, fingerprint, key)
	if err != nil || res == nil {
		return nil
	}
	return res
}

// EncodePeerEntry serializes the cache entry for key as a single-entry
// snapshot — the peer interchange unit. found is false when the key is not
// cached (the HTTP layer maps that to 404). The lookup deliberately does
// not touch LRU recency: a peer's interest is not local use.
func (e *Engine) EncodePeerEntry(key string) (data []byte, found bool, err error) {
	e.mu.Lock()
	el, ok := e.entries[key]
	var res *core.Result
	if ok {
		res = el.Value.(*cacheEntry).res
	}
	e.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	entry, err := encodeEntry(key, res)
	if err != nil {
		return nil, true, fmt.Errorf("engine: peer entry %s: %w", key, err)
	}
	body := snapshotBody{Version: snapshotVersion, Entries: []snapshotEntry{entry}}
	var buf bytes.Buffer
	if err := writeSnapshotPayload(&buf, &body); err != nil {
		return nil, true, err
	}
	return buf.Bytes(), true, nil
}

// DecodePeerEntry validates a peer response for key exactly like a boot
// restore — checksummed header, strict version, and the full structural
// re-validation of decodeEntry — plus the peer-specific requirement that
// the embedded entry's key equals the key that was asked for (a confused
// or malicious peer must not be able to poison a different cache slot).
// It touches no cache: the singleflight leader that asked inserts the
// result it serves.
func DecodePeerEntry(key string, r io.Reader) (*core.Result, error) {
	body, err := parseSnapshotPayload(r)
	if err != nil {
		return nil, err
	}
	if len(body.Entries) != 1 {
		return nil, fmt.Errorf("engine: peer entry carries %d entries, want exactly 1", len(body.Entries))
	}
	entry := &body.Entries[0]
	if entry.Key != key {
		return nil, fmt.Errorf("engine: peer entry key %q does not match requested key %q", entry.Key, key)
	}
	res, err := decodeEntry(entry)
	if err != nil {
		return nil, fmt.Errorf("engine: peer entry invalid: %w", err)
	}
	return res, nil
}
