// Package engine provides the serving front-end of Tessel's schedule
// search: a concurrency-safe Engine that canonicalizes placements into
// stable fingerprints (sched.Fingerprint), keeps an LRU cache of searched
// repetends, serves repeat requests for any micro-batch count via
// core.Extend without re-running the repetend sweep (the §III-C schedule
// generalization), and coalesces concurrent identical requests so a burst
// of equal queries costs one search.
//
// The cache key is the placement fingerprint combined with every search
// option that can change which repetend is found (memory capacity, sweep
// and solver budgets, lazy search). The micro-batch count N is
// deliberately *not* part of the key: a cached repetend extends to any N,
// which is what makes repeated searches O(1) in the sweep cost.
//
// Results returned by the engine are shared between callers and must be
// treated as immutable.
//
// Only successful searches are cached. Failures are deliberately not:
// with per-solve wall-clock budgets a failure can be timing-dependent, and
// pinning one in the cache would turn a transient miss into a permanent
// error. Sequential retries of an infeasible request therefore re-pay the
// sweep (bounded by the caller's deadline and MaxConcurrentSearches).
//
// # Resilience
//
// The engine is built to survive the three serving failure modes:
//
//   - Overload: cold searches pass through an admit.Controller — a
//     concurrency cap, a bounded deadline-aware wait queue, and optional
//     per-tenant token buckets. Refused requests fail fast with a typed
//     ErrOverloaded; requests that opted in (Request.AllowDegraded) are
//     instead served best-effort by a node-capped truncated search, flagged
//     via CacheInfo.Degraded and never cached.
//   - Crashes mid-search: a panic anywhere under core.Search surfaces as a
//     structured *InternalError carrying the placement fingerprint and the
//     recovered value (logged once here), never as a process exit and never
//     as a silent failure indistinguishable from an unsatisfiable search.
//   - Process restarts: the LRU cache snapshots to a versioned, checksummed
//     file (snapshot.go) and restores at boot, so previously-solved
//     fingerprints stay cache hits across restarts. A v4 entry stores the
//     placement, repetend and the full schedule as one items list, from
//     which restore derives and checks the rest; a v1, v2 or v3 file is a
//     cold start.
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"sync"
	"time"

	"tessel/internal/admit"
	"tessel/internal/core"
	"tessel/internal/faultpoint"
	"tessel/internal/sched"
)

// DefaultCacheSize is the repetend-cache capacity when Options.CacheSize
// is zero.
const DefaultCacheSize = 128

// degradedSolverNodes is the per-solve node cap of a degraded search: 1/20
// of the solver's default budget — enough for the incumbent of the solver's
// first descent plus a shallow improvement pass, small enough that a
// degraded search costs a bounded sliver of a full one.
const degradedSolverNodes = core.DefaultSolverNodes / 20

// ErrInternal marks (by unwrapping) a search that failed from a server-side
// bug — a recovered panic — rather than from the request or the search
// space. Callers exposing the engine over a protocol should map it to an
// internal-error status, not a client error. The concrete error is an
// *InternalError carrying the fingerprint and recovered value.
var ErrInternal = errors.New("engine: internal error")

// ErrOverloaded marks (by unwrapping) a request refused by admission
// control. The concrete error is an *OverloadError carrying the refusal
// reason and a Retry-After hint.
var ErrOverloaded = admit.ErrOverloaded

// OverloadError is the typed admission refusal, re-exported so engine
// callers need not import internal/admit.
type OverloadError = admit.OverloadError

// InternalError is a search failure caused by a recovered panic. It
// unwraps (via Is) to ErrInternal.
type InternalError struct {
	// Fingerprint identifies the placement whose search panicked.
	Fingerprint string
	// Recovered is the value recovered from the panic.
	Recovered any
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("engine: internal error: search for %s panicked: %v", e.Fingerprint, e.Recovered)
}

// Is makes errors.Is(err, ErrInternal) true for every InternalError.
func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// ErrInvalidRequest marks (by wrapping) a Search error caused by the
// request itself — an invalid placement or option values — as opposed to a
// search that ran and failed. Callers exposing the engine over a protocol
// should map it to a bad-request status (400), not an unprocessable or
// server-error one.
var ErrInvalidRequest = errors.New("engine: invalid request")

// Options configures an Engine.
type Options struct {
	// CacheSize caps the number of cached search results (≤0 uses
	// DefaultCacheSize).
	CacheSize int
	// MaxConcurrentSearches caps cold searches running at once (≤0 =
	// unlimited). Each cold search runs its own solver goroutines
	// (core.Options.Workers, GOMAXPROCS by default) beside the goroutine
	// that walks and judges its sweep, so a serving deployment should bound
	// them; cache hits and coalesced followers are never throttled.
	MaxConcurrentSearches int
	// MaxQueuedSearches bounds how many cold searches may wait for a slot
	// beyond the running ones: 0 = unlimited queue (a saturated engine
	// serializes, the pre-admission behavior), negative = no queue (a
	// search that cannot start immediately is refused).
	MaxQueuedSearches int
	// QueueWait caps how long a queued search waits before it is refused
	// with ErrOverloaded (0 = wait until the caller's context expires).
	QueueWait time.Duration
	// TenantRate is the per-tenant cold-search budget in searches per
	// second (0 = no tenant budgets). Cache hits and coalesced followers
	// never draw on a budget.
	TenantRate float64
	// TenantBurst is the tenant bucket capacity (≤0 defaults to 1).
	TenantBurst int
	// PeerFetchBudget caps the whole peer-fetch phase of one cold miss
	// when a peer tier is installed (≤0 uses DefaultPeerFetchBudget). The
	// cold search always keeps the remaining request deadline.
	PeerFetchBudget time.Duration
	// Logf receives the engine's warnings — recovered panics, skipped
	// snapshot entries (nil uses log.Printf).
	Logf func(format string, args ...any)
}

// Stats is a snapshot of the engine's counters. It is the one declaration
// of every engine counter: the engine counts into a value of this type and
// the JSON tags are the /v1/stats wire names.
type Stats struct {
	// Hits counts requests served from the cache (no repetend sweep).
	Hits uint64 `json:"hits"`
	// Misses counts requests that ran a full search.
	Misses uint64 `json:"misses"`
	// Shared counts requests coalesced onto a concurrent identical search.
	Shared uint64 `json:"shared"`
	// Evictions counts cache entries displaced by the LRU policy.
	Evictions uint64 `json:"evictions"`
	// Admitted counts cold searches admitted past admission control
	// (including every cold search of an engine with no admission limits).
	Admitted uint64 `json:"admitted"`
	// Queued counts admitted cold searches that had to wait for a slot.
	Queued uint64 `json:"queued"`
	// Shed counts requests refused with ErrOverloaded — leaders refused by
	// admission control and the followers coalesced onto them.
	Shed uint64 `json:"shed"`
	// Degraded counts requests served best-effort by a node-capped
	// degraded search.
	Degraded uint64 `json:"degraded"`
	// Restored counts cache entries loaded from a snapshot since boot.
	Restored uint64 `json:"restored"`
	// SnapshotWriteErrors counts failed cache snapshot writes — warm state
	// that would have been silently lost if the caller only logged.
	SnapshotWriteErrors uint64 `json:"snapshot_write_errors"`
	// PeerStats holds the installed peer tier's counters (all zero when no
	// tier is installed).
	PeerStats
	// Entries is the current number of cached results.
	Entries int `json:"entries"`
}

// CacheInfo reports how one Engine.Search call was served.
type CacheInfo struct {
	// Fingerprint is the canonical SHA-256 fingerprint of the placement.
	Fingerprint string
	// Hit is true when the repetend came from the cache.
	Hit bool
	// Shared is true when the call coalesced onto a concurrent search.
	Shared bool
	// Degraded is true when the result came from a node-capped best-effort
	// search under overload rather than a full sweep. Degraded results are
	// never cached.
	Degraded bool
	// PeerHit is true when the repetend was fetched (validated) from a
	// peer replica instead of cold-searched locally.
	PeerHit bool
}

// Request is one search request at the serving boundary.
type Request struct {
	// Placement is the placement to schedule.
	Placement *sched.Placement
	// Options configures the search.
	Options core.Options
	// Tenant attributes the request to a per-tenant admission budget
	// (Options.TenantRate). The empty string is a valid tenant.
	Tenant string
	// AllowDegraded opts in to a best-effort node-capped search when
	// admission control would otherwise refuse the request.
	AllowDegraded bool
	// ScheduleParts lets a hit or a shared result that is composed from a
	// cached result's certificate leave Full nil (core.ExtendParts), for a
	// caller that only writes the schedule, by Result.AppendSchedule. The
	// zero value builds Full on every path.
	ScheduleParts bool
}

// Engine is a cache-backed, deduplicating front-end over core.Search. The
// zero value is not usable; construct with New.
type Engine struct {
	cap        int
	ctrl       *admit.Controller
	peerBudget time.Duration
	logf       func(format string, args ...any)

	mu      sync.Mutex
	peers   PeerTier                 // nil = no replica peer tier
	entries map[string]*list.Element // values are *cacheEntry
	lru     *list.List               // front = most recently used
	flight  map[string]*flightCall
	stats   Stats // PeerStats and Entries are filled in by Stats()
}

// cacheEntry is the value stored in the LRU list.
type cacheEntry struct {
	key string
	res *core.Result
}

// flightCall is one in-flight search other callers can wait on.
type flightCall struct {
	done chan struct{}
	res  *core.Result
	err  error
	// degraded is true when the leader served a best-effort result; written
	// before done closes, so followers read it race-free.
	degraded bool
	// peer is true when the leader served a validated peer-fetched entry
	// instead of cold-searching; written before done closes.
	peer bool
}

// New builds an Engine with the given options.
func New(opts Options) *Engine {
	size := opts.CacheSize
	if size <= 0 {
		size = DefaultCacheSize
	}
	e := &Engine{
		cap: size,
		ctrl: admit.New(admit.Options{
			MaxConcurrent: opts.MaxConcurrentSearches,
			MaxQueue:      opts.MaxQueuedSearches,
			MaxWait:       opts.QueueWait,
			TenantRate:    opts.TenantRate,
			TenantBurst:   opts.TenantBurst,
		}),
		peerBudget: opts.PeerFetchBudget,
		logf:       opts.Logf,
		entries:    make(map[string]*list.Element),
		lru:        list.New(),
		flight:     make(map[string]*flightCall),
	}
	if e.peerBudget <= 0 {
		e.peerBudget = DefaultPeerFetchBudget
	}
	if e.logf == nil {
		e.logf = log.Printf
	}
	return e
}

// Search serves one search request with no tenant attribution and no
// degradation opt-in. It is Serve with a bare Request; see Serve.
func (e *Engine) Search(ctx context.Context, p *sched.Placement, opts core.Options) (*core.Result, CacheInfo, error) {
	return e.Serve(ctx, Request{Placement: p, Options: opts})
}

// Serve serves one search request. A request whose placement and
// search-relevant options match a cached result is answered via core.Extend
// (or directly, when the micro-batch count also matches) without invoking
// the repetend solver; a request equal to one currently being searched
// waits for that search instead of duplicating it. Cold searches pass
// through admission control: refused requests fail fast with an error
// unwrapping to ErrOverloaded, unless the request opted in to degradation
// (Request.AllowDegraded), in which case a node-capped best-effort search
// answers it with CacheInfo.Degraded set. Cancelling ctx aborts the
// caller's own work promptly — including the wait on a coalesced search —
// and returns ctx's error.
func (e *Engine) Serve(ctx context.Context, req Request) (*core.Result, CacheInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, opts := req.Placement, req.Options
	info := CacheInfo{}
	if p == nil {
		return nil, info, fmt.Errorf("%w: nil placement", ErrInvalidRequest)
	}
	if err := p.Validate(); err != nil {
		return nil, info, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	if opts.N < 0 {
		// Reject before touching the cache or flight maps: N is not part of
		// the request key, so letting an invalid N become the singleflight
		// leader would hand its error to concurrent valid requests.
		return nil, info, fmt.Errorf("%w: micro-batch count must be non-negative, got %d", ErrInvalidRequest, opts.N)
	}
	// core reads -1 nodes as unlimited — past the degraded cap — and -1
	// assignments as none; refused here, none becomes a cache class either.
	if opts.Memory < 0 || opts.MaxAssignments < 0 || opts.SolverNodes < 0 || opts.SolverTimeout < 0 {
		return nil, info, fmt.Errorf("%w: memory and search budgets must be non-negative, got %+v", ErrInvalidRequest, opts)
	}
	if opts.MaxNR > core.MaxNRLimit {
		return nil, info, fmt.Errorf("%w: max_nr %d exceeds %d", ErrInvalidRequest, opts.MaxNR, core.MaxNRLimit)
	}
	info.Fingerprint = sched.Fingerprint(p)
	key := requestKey(info.Fingerprint, p, opts)

	for {
		e.mu.Lock()
		if el, ok := e.entries[key]; ok {
			e.lru.MoveToFront(el)
			cached := el.Value.(*cacheEntry).res
			e.mu.Unlock()
			out, err := extendTo(ctx, cached, opts, req.ScheduleParts)
			if err != nil {
				return nil, info, err
			}
			// Counted only on success so Stats.Hits means "served from
			// cache", not "found in cache but the extension failed".
			e.mu.Lock()
			e.stats.Hits++
			e.mu.Unlock()
			info.Hit = true
			return out, info, nil
		}
		if fc, ok := e.flight[key]; ok {
			e.mu.Unlock()
			select {
			case <-fc.done:
			case <-ctx.Done():
				return nil, info, ctx.Err()
			}
			if fc.err != nil {
				if isContextErr(fc.err) && ctx.Err() == nil {
					// The leader was cancelled but this caller was not:
					// retry, becoming the leader if the slot is still free.
					continue
				}
				if errors.Is(fc.err, ErrOverloaded) {
					// The leader was refused by admission, so this coalesced
					// request was shed with it.
					e.mu.Lock()
					e.stats.Shed++
					e.mu.Unlock()
				}
				return nil, info, fc.err
			}
			if fc.degraded && !req.AllowDegraded {
				// The leader settled for a best-effort result this caller did
				// not opt in to; retry for a full search (likely becoming the
				// leader and facing its own admission verdict).
				continue
			}
			out, err := extendTo(ctx, fc.res, opts, req.ScheduleParts)
			if err != nil {
				return nil, info, err
			}
			e.mu.Lock()
			e.stats.Shared++
			if fc.degraded {
				e.stats.Degraded++
			}
			e.mu.Unlock()
			info.Shared = true
			info.Degraded = fc.degraded
			info.PeerHit = fc.peer
			return out, info, nil
		}
		fc := &flightCall{done: make(chan struct{})}
		e.flight[key] = fc
		e.stats.Misses++
		e.mu.Unlock()

		res, err := e.lead(ctx, key, info.Fingerprint, fc, req)
		info.Degraded = fc.degraded
		info.PeerHit = fc.peer
		return res, info, err
	}
}

// lead runs the search as the singleflight leader. The flight slot is
// released in a defer — a panic inside the search must not strand followers
// on fc.done or poison the key until restart, so it is converted into a
// structured *InternalError shared with them (and logged once here). The
// search runs under the leader's own context: if the leader is cancelled,
// followers whose contexts are still live re-elect a leader and restart the
// search (the partial sweep is lost — a deliberate simplicity trade-off
// over detaching the search onto a waiter-refcounted context).
func (e *Engine) lead(ctx context.Context, key, fingerprint string, fc *flightCall, req Request) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &InternalError{Fingerprint: fingerprint, Recovered: r}
			e.logf("engine: search %s panicked: %v", fingerprint, r)
		}
		fc.res, fc.err = res, err
		e.mu.Lock()
		delete(e.flight, key)
		if err == nil && !fc.degraded {
			// The one insert of a miss, whether searched or peer-fetched.
			// Degraded results are deliberately not cached: they are
			// load-shaped, not search-shaped, and pinning one would keep
			// serving a budget-starved answer long after the overload passed.
			e.insert(key, res)
		}
		e.mu.Unlock()
		close(fc.done)
	}()
	// Peer fetch runs BEFORE admission control: a validated peer entry
	// costs a bounded few milliseconds of I/O, not a saturating search, so
	// it should neither consume a cold-search slot nor draw on the tenant's
	// budget — under overload, a request whose owner replica has the entry
	// is served full-quality where it would otherwise be shed or degraded.
	// Any peer failure falls through to the normal admission + search path
	// with the remaining deadline.
	if tier := e.peerTier(); tier != nil {
		if pres := e.peerFetch(ctx, fingerprint, key, tier); pres != nil {
			// Full is built: the result is cached.
			if out, xerr := extendTo(ctx, pres, req.Options, false); xerr == nil {
				fc.peer = true
				return out, nil
			}
		}
	}
	release, waited, aerr := e.ctrl.Admit(ctx, req.Tenant)
	if aerr != nil {
		if errors.Is(aerr, ErrOverloaded) {
			if req.AllowDegraded {
				return e.searchDegraded(ctx, fc, req)
			}
			e.mu.Lock()
			e.stats.Shed++
			e.mu.Unlock()
		}
		return nil, aerr
	}
	defer release()
	e.mu.Lock()
	e.stats.Admitted++
	if waited {
		e.stats.Queued++
	}
	e.mu.Unlock()
	if ferr := faultpoint.Inject(faultpoint.EngineSingleflight); ferr != nil {
		return nil, ferr
	}
	return core.Search(ctx, req.Placement, req.Options)
}

// searchDegraded answers an over-admission request best-effort: the same
// search with every exact solve capped to a small node budget, so it
// finishes in a bounded sliver of a full search's work. The result is
// marked degraded on the flight call (so coalesced followers that did not
// opt in retry instead of silently accepting it) and is never cached.
func (e *Engine) searchDegraded(ctx context.Context, fc *flightCall, req Request) (*core.Result, error) {
	opts := req.Options
	if opts.SolverNodes == 0 || opts.SolverNodes > degradedSolverNodes {
		opts.SolverNodes = degradedSolverNodes
	}
	fc.degraded = true
	e.mu.Lock()
	e.stats.Degraded++
	e.mu.Unlock()
	return core.Search(ctx, req.Placement, opts)
}

// Stats returns a snapshot of the engine's counters, including the
// installed peer tier's. The tier is read under the engine's mutex but
// called after releasing it, so a tier may itself call back into the engine.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := e.stats
	s.Entries = len(e.entries)
	tier := e.peers
	e.mu.Unlock()
	if tier != nil {
		s.PeerStats = tier.Stats()
	}
	return s
}

// extendTo adapts a cached result to the requested micro-batch count,
// re-using its repetend. When the counts already match the cached result is
// returned as-is; otherwise the extension carries the originating search's
// Stats, so every cache hit reports the same search effort regardless of
// which N it asked for — except Truncated, which also says whether the
// extension's own warmup or cooldown solve ran out of budget. With parts the
// extension is core.ExtendParts'.
func extendTo(ctx context.Context, cached *core.Result, opts core.Options, parts bool) (*core.Result, error) {
	n := opts.N
	if n == 0 && cached.Repetend != nil {
		n = 3 * cached.Repetend.NR
	}
	if n == cached.N {
		return cached, nil
	}
	extend := core.Extend
	if parts {
		extend = core.ExtendParts
	}
	out, err := extend(ctx, cached, n, opts)
	if err != nil {
		return nil, err
	}
	truncated := out.Stats.Truncated
	out.Stats = cached.Stats
	out.Stats.Truncated = truncated || cached.Stats.Truncated
	return out, nil
}

// requestKey combines the placement fingerprint with every option that can
// change which repetend the search finds. Options are resolved first, by the
// same core.Options.Resolve Search runs, so that spellings Search treats
// identically (Memory 0 vs Unbounded, explicit vs default budgets, MaxNR 0
// vs the memory-derived cap) share a key. N and Workers are excluded: N is
// served by extension, and Workers only changes how many goroutines solve —
// core.Search decides on one goroutine, in enumeration order, and returns
// byte-identical schedules for every Workers setting, so keying on it would
// split the cache without changing any cached result.
// That determinism is what makes the cache reproducible: which request of
// a coalesced burst becomes the singleflight leader cannot change the
// entry that gets pinned.
//
// The key's fingerprint prefix doubles as a snapshot integrity check: a
// restored entry's key must begin with the fingerprint of its embedded
// placement (snapshot.go).
//
// The key is built on every hit, so by appends rather than fmt: the bytes of
// fmt.Sprintf("%s|mem=%d|nr=%d|asn=%d|nod=%d|to=%d|lazy=%t", …), which
// snapshot and peer entries carry.
func requestKey(fingerprint string, p *sched.Placement, opts core.Options) string {
	o := opts.Resolve(p)
	var buf [192]byte
	b := append(append(buf[:0], fingerprint...), "|mem="...)
	b = strconv.AppendInt(b, int64(o.Memory), 10)
	b = strconv.AppendInt(append(b, "|nr="...), int64(o.MaxNR), 10)
	b = strconv.AppendInt(append(b, "|asn="...), int64(o.MaxAssignments), 10)
	b = strconv.AppendInt(append(b, "|nod="...), o.SolverNodes, 10)
	b = strconv.AppendInt(append(b, "|to="...), int64(o.SolverTimeout), 10)
	b = strconv.AppendBool(append(b, "|lazy="...), !o.DisableLazy)
	return string(b)
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// insert adds a result under key, evicting from the LRU tail when over
// capacity. Callers hold e.mu.
func (e *Engine) insert(key string, res *core.Result) {
	if el, ok := e.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		e.lru.MoveToFront(el)
		return
	}
	e.entries[key] = e.lru.PushFront(&cacheEntry{key: key, res: res})
	for len(e.entries) > e.cap {
		back := e.lru.Back()
		e.lru.Remove(back)
		delete(e.entries, back.Value.(*cacheEntry).key)
		e.stats.Evictions++
	}
}
