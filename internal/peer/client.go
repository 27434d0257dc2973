package peer

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tessel/internal/core"
	"tessel/internal/engine"
)

// Client-side tuning. An entire fetch round is additionally boxed by the
// engine's PeerFetchBudget, so these bound one peer, not the request. Only
// the attempt timeout is configurable (ClientOptions.AttemptTimeout); the
// rest have had one value in use since the tier shipped.
const (
	// DefaultReplication is how many owner replicas a fetch tries.
	DefaultReplication = 2
	// DefaultAttemptTimeout deadline-boxes one HTTP attempt (a fetch or a
	// health probe) when ClientOptions.AttemptTimeout is zero.
	DefaultAttemptTimeout = 250 * time.Millisecond
	// DefaultAttempts is the per-peer attempt count (first try + retries).
	DefaultAttempts = 2
	// DefaultBackoffBase seeds the jittered exponential retry backoff:
	// retry k against the same peer waits in [base·2ᵏ⁻¹, 2·base·2ᵏ⁻¹).
	DefaultBackoffBase = 15 * time.Millisecond
	// maxEntryBytes bounds a peer entry response body; a single cached
	// entry is a few hundred KB at the serving caps, so 16 MB is generous
	// while still refusing to buffer an adversarial stream.
	maxEntryBytes = 16 << 20
)

// ClientOptions configures a Client.
type ClientOptions struct {
	// Self is this replica's own address exactly as it appears in Peers.
	// It must be a ring member so every replica computes identical
	// ownership; the client never fetches from itself.
	Self string
	// Peers is the static replica list (every replica must be given the
	// same list, order-independent). Entries are host:port or full URLs;
	// bare host:port gets an http:// scheme.
	Peers []string
	// AttemptTimeout deadline-boxes one HTTP attempt — an entry fetch or a
	// health probe (0 = DefaultAttemptTimeout).
	AttemptTimeout time.Duration
	// HTTPClient overrides the transport (nil = a client with sane
	// connection pooling; per-attempt deadlines come from contexts, so the
	// client's own Timeout stays zero).
	HTTPClient *http.Client
	// Logf receives client warnings (nil = discard; the engine already
	// surfaces peer failures as counters, so logs are debugging aid only).
	Logf func(format string, args ...any)
}

// Client is the fetching side of the peer tier: it routes fingerprints on
// the ring, fetches entries over HTTP with retries and per-peer circuit
// breakers, and validates every response through the engine's snapshot
// codec (engine.DecodePeerEntry); the engine inserts what it serves. It
// implements engine.PeerTier.
type Client struct {
	ring *Ring
	self string

	attemptTimeout time.Duration
	http           *http.Client
	logf           func(format string, args ...any)

	// attempts, the breaker tuning, the breaker clock and the retry-backoff
	// wait are fields rather than direct constant reads only so in-package
	// tests can set them after NewClient (breakers are built lazily, on the
	// first fetch from a peer).
	attempts        int
	now             func() time.Time
	sleep           func(ctx context.Context, d time.Duration)
	breakerFailures int
	breakerCooldown time.Duration
	breakersMu      sync.Mutex
	breakers        map[string]*breaker

	// remotes is the ring membership minus self, in ring-sorted order —
	// the peers the prober sweeps.
	remotes []string
	// probeState tracks consecutive health-probe outcomes per remote.
	probeMu    sync.Mutex
	probeState map[string]*probeState

	hits        atomic.Uint64
	misses      atomic.Uint64
	errors      atomic.Uint64
	retries     atomic.Uint64
	breakerOpen atomic.Uint64
}

// NewClient builds the peer tier client for an engine; install the client on
// it afterwards with eng.SetPeerTier(c).
func NewClient(eng *engine.Engine, opts ClientOptions) (*Client, error) {
	if eng == nil {
		return nil, fmt.Errorf("peer: client needs an engine")
	}
	if opts.Self == "" {
		return nil, fmt.Errorf("peer: client needs Self, this replica's own ring address")
	}
	ring, err := NewRing(opts.Peers)
	if err != nil {
		return nil, err
	}
	if !ring.Contains(opts.Self) {
		return nil, fmt.Errorf("peer: Self %q is not in the peer list — every replica must be given the identical full list, including itself", opts.Self)
	}
	c := &Client{
		ring:            ring,
		self:            opts.Self,
		attemptTimeout:  opts.AttemptTimeout,
		http:            opts.HTTPClient,
		logf:            opts.Logf,
		attempts:        DefaultAttempts,
		now:             time.Now,
		sleep:           sleepCtx,
		breakerFailures: DefaultBreakerFailures,
		breakerCooldown: DefaultBreakerCooldown,
		breakers:        make(map[string]*breaker),
		probeState:      make(map[string]*probeState),
	}
	if c.attemptTimeout <= 0 {
		c.attemptTimeout = DefaultAttemptTimeout
	}
	if c.http == nil {
		c.http = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	for _, p := range ring.Peers() {
		if p != c.self {
			c.remotes = append(c.remotes, p)
			c.probeState[p] = &probeState{}
		}
	}
	return c, nil
}

// Ring exposes the client's ring for readiness reporting and tests.
func (c *Client) Ring() *Ring { return c.ring }

// HealthSummary reports the ring's local health view — configured remote
// peers and how many of them are currently in the ring. /readyz, /v1/stats
// (through Stats) and the startup log all read this one count.
func (c *Client) HealthSummary() (configured, healthy int) {
	// Only ProbeOnce ejects, and it sweeps remotes only, so self is always
	// one of the ring's healthy members.
	return len(c.remotes), c.ring.Healthy() - 1
}

// Stats implements engine.PeerTier.
func (c *Client) Stats() engine.PeerStats {
	_, healthy := c.HealthSummary()
	return engine.PeerStats{
		PeerHits:     c.hits.Load(),
		PeerMisses:   c.misses.Load(),
		PeerErrors:   c.errors.Load(),
		PeerRetries:  c.retries.Load(),
		BreakerOpen:  c.breakerOpen.Load(),
		PeersHealthy: healthy,
	}
}

// BreakerState reports a peer's circuit position (closed for peers that
// have never been fetched from).
func (c *Client) BreakerState(peer string) BreakerState {
	return c.breakerFor(peer).State()
}

func (c *Client) breakerFor(peer string) *breaker {
	c.breakersMu.Lock()
	defer c.breakersMu.Unlock()
	b, ok := c.breakers[peer]
	if !ok {
		b = newBreaker(c.breakerFailures, c.breakerCooldown, c.now, func() {
			c.breakerOpen.Add(1)
		})
		c.breakers[peer] = b
	}
	return b
}

// fetchOutcome classifies one HTTP attempt.
type fetchOutcome int

const (
	fetchHit      fetchOutcome = iota // validated entry obtained
	fetchNotFound                     // peer answered authoritatively: not cached
	fetchFailure                      // network error, bad status, or invalid body
)

// Fetch implements engine.PeerTier: it walks the fingerprint's healthy
// owners (skipping itself and open-circuit peers) and tries each with
// deadline-boxed attempts and jittered exponential backoff. The first
// validated entry wins; a peer that answers "not cached" is not retried
// (the answer is authoritative). Every outcome that is not a hit returns
// (nil, nil) — a miss the engine converts into a cold search — except a
// dead context, whose error is returned so the engine can stop early.
func (c *Client) Fetch(ctx context.Context, fingerprint, key string) (*core.Result, error) {
	// Ask for one extra owner so that when this replica is itself an owner
	// the fetch still reaches `replication` remote candidates.
	owners := c.ring.Owners(fingerprint, DefaultReplication+1)
	tried := 0
	for _, owner := range owners {
		if owner == c.self || tried >= DefaultReplication {
			continue
		}
		tried++
		br := c.breakerFor(owner)
		for attempt := 0; attempt < c.attempts; attempt++ {
			if ctx.Err() != nil {
				c.misses.Add(1)
				return nil, ctx.Err()
			}
			if !br.Allow() {
				// Open circuit: skip the peer entirely (and any retries).
				break
			}
			if attempt > 0 {
				c.retries.Add(1)
				c.sleep(ctx, c.backoff(attempt))
				if ctx.Err() != nil {
					c.misses.Add(1)
					return nil, ctx.Err()
				}
			}
			res, outcome, err := c.fetchOnce(ctx, owner, key)
			switch outcome {
			case fetchHit:
				br.Success()
				c.hits.Add(1)
				return res, nil
			case fetchNotFound:
				br.Success()
			case fetchFailure:
				c.errors.Add(1)
				br.Failure()
				c.logf("peer: fetch %s from %s (attempt %d/%d): %v", fingerprint[:min(8, len(fingerprint))], owner, attempt+1, c.attempts, err)
				continue
			}
			break // authoritative not-found: next owner
		}
	}
	c.misses.Add(1)
	return nil, nil
}

// backoff computes the jittered exponential wait before retry `attempt`
// (1-based): uniform in [base·2ᵃ⁻¹, 2·base·2ᵃ⁻¹). Jitter decorrelates retry
// storms between replicas; it never affects which entry is fetched.
func (c *Client) backoff(attempt int) time.Duration {
	base := DefaultBackoffBase << (attempt - 1)
	return base + time.Duration(float64(base)*rand.Float64())
}

// fetchOnce performs one deadline-boxed HTTP attempt against one peer and
// validates the response with engine.DecodePeerEntry (checksum, version, key
// match, full structural re-validation). Validation failures are failures — a
// lying peer trips its breaker just like a dead one.
func (c *Client) fetchOnce(ctx context.Context, owner, key string) (*core.Result, fetchOutcome, error) {
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout)
	defer cancel()
	u := peerBaseURL(owner) + "/v1/peer/entry?key=" + url.QueryEscape(key)
	req, err := http.NewRequestWithContext(actx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fetchFailure, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fetchFailure, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, fetchNotFound, nil
	default:
		return nil, fetchFailure, fmt.Errorf("peer %s: status %s", owner, resp.Status)
	}
	res, err := engine.DecodePeerEntry(key, io.LimitReader(resp.Body, maxEntryBytes))
	if err != nil {
		return nil, fetchFailure, fmt.Errorf("peer %s: %w", owner, err)
	}
	return res, fetchHit, nil
}

// peerBaseURL normalizes a peer address to a URL base: bare host:port gets
// http://, trailing slashes are trimmed.
func peerBaseURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// sleepCtx waits d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
