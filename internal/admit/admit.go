// Package admit implements admission control for the serving tier: a
// concurrency cap on expensive work (cold schedule searches), a bounded
// deadline-aware wait queue in front of it, and per-tenant token-bucket
// budgets. It is pure mechanism — the engine decides *what* is expensive
// (cache hits and coalesced followers never reach a Controller) and what to
// do on rejection (shed with 429, or degrade); the Controller only answers
// "may this run now, may it wait, or is it over budget?".
//
// Rejections are typed: every refusal unwraps to ErrOverloaded and carries
// a RetryAfter hint sized to the reason (the tenant bucket's refill time,
// or the queue-wait cap), so protocol front-ends can emit honest
// Retry-After headers instead of a constant.
package admit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded marks (by unwrapping) every admission refusal: queue full,
// queue wait exceeded, or tenant budget exhausted. A caller that can serve
// a cheaper best-effort answer keys its degraded path off this error.
var ErrOverloaded = errors.New("admit: overloaded")

// DefaultRetryAfter is the retry hint when no better estimate exists (the
// queue is full, so the wait time of a queued request is unknowable).
const DefaultRetryAfter = time.Second

// clampRetryAfter floors an overload back-off hint at one second. Hints are
// sized from request state — a tenant bucket's refill sliver, a small queue
// wait cap, or a deadline that had already elapsed at shed time — and can
// legitimately compute to milliseconds, zero, or negative. A sub-second
// hint rounds to an invalid or zero Retry-After header downstream, which
// clients read as "retry immediately" — amplifying the very overload the
// shed was relieving.
func clampRetryAfter(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	return d
}

// maxTenants caps the tenant-bucket table so an adversarial stream of fresh
// tenant names cannot grow it without bound. When full, the stalest bucket
// is evicted; an evicted tenant restarts with a full burst, which errs
// toward admitting.
const maxTenants = 4096

// OverloadError is a typed admission refusal.
type OverloadError struct {
	// Reason is a short human-readable cause ("wait queue full", ...).
	Reason string
	// RetryAfter is the suggested back-off before retrying.
	RetryAfter time.Duration
	// Tenant attributes the refusal to the requesting tenant; set by the
	// tenant-budget and expired-deadline paths.
	Tenant string
}

func (e *OverloadError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("admit: overloaded: %s (tenant %q, retry after %s)", e.Reason, e.Tenant, e.RetryAfter)
	}
	return fmt.Sprintf("admit: overloaded: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) true for every OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Options configures a Controller.
type Options struct {
	// MaxConcurrent caps admissions running at once (≤0 = unlimited; the
	// Controller then only enforces tenant budgets).
	MaxConcurrent int
	// MaxQueue bounds how many admissions may wait for a slot beyond the
	// running ones: 0 = unlimited queue, negative = no queue (a request
	// that cannot run immediately is refused).
	MaxQueue int
	// MaxWait caps how long a queued admission waits before it is refused
	// (0 = wait until the caller's context expires).
	MaxWait time.Duration
	// TenantRate is the per-tenant admission budget in admissions per
	// second (0 = no tenant budgets). Every distinct tenant string gets
	// its own bucket, including the empty string.
	TenantRate float64
	// TenantBurst is the bucket capacity — how many admissions a tenant
	// may burst above its steady rate (≤0 defaults to 1).
	TenantBurst int

	// now overrides the clock in tests (nil = time.Now).
	now func() time.Time
}

// Controller is a concurrency-capped, tenant-budgeted admission gate. The
// zero value is not usable; construct with New. All methods are safe for
// concurrent use.
type Controller struct {
	sem     chan struct{} // nil = unlimited concurrency
	maxQ    int
	maxWait time.Duration

	queued atomic.Int64

	buckets *tenantBuckets // nil = no tenant budgets
}

// New builds a Controller with the given options.
func New(opts Options) *Controller {
	c := &Controller{maxQ: opts.MaxQueue, maxWait: opts.MaxWait}
	if opts.MaxConcurrent > 0 {
		c.sem = make(chan struct{}, opts.MaxConcurrent)
	}
	if opts.TenantRate > 0 {
		burst := opts.TenantBurst
		if burst <= 0 {
			burst = 1
		}
		now := opts.now
		if now == nil {
			now = time.Now
		}
		c.buckets = &tenantBuckets{
			rate:  opts.TenantRate,
			burst: float64(burst),
			max:   maxTenants,
			now:   now,
			m:     make(map[string]*bucket),
		}
	}
	return c
}

// Admit asks for one admission on behalf of tenant. On success it returns a
// release func (which must be called exactly once, when the admitted work
// finishes) and whether the admission had to wait in the queue. On refusal
// it returns an *OverloadError (unwrapping to ErrOverloaded); a caller
// context that expires while queued returns the context's error instead —
// the queue is deadline-aware, so a request that cannot be admitted before
// its deadline never occupies a slot it could not use.
func (c *Controller) Admit(ctx context.Context, tenant string) (release func(), queued bool, err error) {
	// A request whose deadline has already elapsed can never use an
	// admission, so shed it before it spends anything — checking up front
	// keeps it from consuming a tenant token (or queue capacity) it could
	// not use, and tags the refusal with the tenant so 429 telemetry is
	// consistent with the budget path. Note the hint is NOT the (negative)
	// time to its deadline: the clamp floors it at 1s.
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem <= 0 {
			return nil, false, &OverloadError{Reason: "deadline elapsed before admission", RetryAfter: clampRetryAfter(rem), Tenant: tenant}
		}
	}
	if c.buckets != nil {
		if wait := c.buckets.take(tenant); wait > 0 {
			return nil, false, &OverloadError{Reason: "tenant budget exhausted", RetryAfter: clampRetryAfter(wait), Tenant: tenant}
		}
	}
	if c.sem == nil {
		return func() {}, false, nil
	}
	select {
	case c.sem <- struct{}{}:
		return c.releaseSlot, false, nil
	default:
	}
	if c.maxQ < 0 {
		return nil, false, &OverloadError{Reason: "at capacity", RetryAfter: c.queueRetryAfter()}
	}
	if n := c.queued.Add(1); c.maxQ > 0 && n > int64(c.maxQ) {
		c.queued.Add(-1)
		return nil, false, &OverloadError{Reason: "wait queue full", RetryAfter: c.queueRetryAfter()}
	}
	defer c.queued.Add(-1)
	var expired <-chan time.Time
	if c.maxWait > 0 {
		timer := time.NewTimer(c.maxWait)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case c.sem <- struct{}{}:
		return c.releaseSlot, true, nil
	case <-ctx.Done():
		return nil, true, ctx.Err()
	case <-expired:
		return nil, true, &OverloadError{Reason: "queue wait exceeded", RetryAfter: c.queueRetryAfter()}
	}
}

// queueRetryAfter is the back-off hint for queue-side refusals: the queue
// wait cap when one is configured (by then a slot has either freed or the
// queue has drained a step), else the default — floored at one second
// either way, since MaxWait may be configured well under a second.
func (c *Controller) queueRetryAfter() time.Duration {
	if c.maxWait > 0 {
		return clampRetryAfter(c.maxWait)
	}
	return DefaultRetryAfter
}

func (c *Controller) releaseSlot() { <-c.sem }

// Queued reports the admissions currently waiting for a slot.
func (c *Controller) Queued() int { return int(c.queued.Load()) }

// tenantBuckets is the per-tenant token-bucket table.
type tenantBuckets struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity
	max   int     // table capacity
	now   func() time.Time

	mu sync.Mutex
	m  map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// take removes one token from tenant's bucket. It returns 0 on success, or
// the time until the bucket next holds a full token.
func (tb *tenantBuckets) take(tenant string) time.Duration {
	now := tb.now()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	b, ok := tb.m[tenant]
	if !ok {
		if len(tb.m) >= tb.max {
			tb.evictStalest()
		}
		b = &bucket{tokens: tb.burst, last: now}
		tb.m[tenant] = b
	} else {
		b.tokens += tb.rate * now.Sub(b.last).Seconds()
		if b.tokens > tb.burst {
			b.tokens = tb.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0
	}
	wait := time.Duration((1 - b.tokens) / tb.rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Millisecond
	}
	return wait
}

// evictStalest drops the bucket with the oldest refill time. Callers hold
// tb.mu. Map iteration order does not matter: any stalest-tied victim is
// equally safe to drop, since eviction only ever *refills* a tenant.
func (tb *tenantBuckets) evictStalest() {
	var victim string
	var oldest time.Time
	first := true
	for k, b := range tb.m {
		if first || b.last.Before(oldest) {
			victim, oldest, first = k, b.last, false
		}
	}
	if !first {
		delete(tb.m, victim)
	}
}
