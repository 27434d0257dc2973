package admit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

func TestUnlimitedAdmitsEverything(t *testing.T) {
	c := New(Options{})
	ctx := testCtx(t)
	var releases []func()
	for i := 0; i < 32; i++ {
		rel, queued, err := c.Admit(ctx, "t")
		if err != nil || queued {
			t.Fatalf("admit %d: queued=%t err=%v", i, queued, err)
		}
		releases = append(releases, rel)
	}
	if c.sem != nil {
		t.Fatalf("unlimited controller holds a %d-slot semaphore", cap(c.sem))
	}
	for _, rel := range releases {
		rel()
	}
}

func TestConcurrencyCapAndQueue(t *testing.T) {
	c := New(Options{MaxConcurrent: 1, MaxQueue: 1})
	ctx := testCtx(t)
	rel1, queued, err := c.Admit(ctx, "t")
	if err != nil || queued {
		t.Fatalf("first admit: queued=%t err=%v", queued, err)
	}
	// Second admission must queue; admit it from a goroutine.
	admitted := make(chan func(), 1)
	go func() {
		rel, q, err := c.Admit(ctx, "t")
		if err != nil || !q {
			t.Errorf("queued admit: queued=%t err=%v", q, err)
		}
		admitted <- rel
	}()
	waitFor(t, func() bool { return c.Queued() == 1 })
	// Third admission finds the queue full and is refused synchronously.
	_, _, err = c.Admit(ctx, "t")
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full admit err = %v, want OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if got := len(c.sem); got != 1 {
		t.Fatalf("%d slots held with one admitted and one queued, want 1", got)
	}
	rel1()
	rel2 := <-admitted
	if got := len(c.sem); got != 1 {
		t.Fatalf("%d slots held after the queued admission, want 1", got)
	}
	rel2()
	if got := len(c.sem); got != 0 {
		t.Fatalf("%d slots held after both releases, want 0", got)
	}
}

func TestNoQueueRefusesImmediately(t *testing.T) {
	c := New(Options{MaxConcurrent: 1, MaxQueue: -1})
	ctx := testCtx(t)
	rel, _, err := c.Admit(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	start := time.Now()
	_, _, err = c.Admit(ctx, "t")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("no-queue refusal took %v, want immediate", d)
	}
}

func TestQueueWaitDeadline(t *testing.T) {
	c := New(Options{MaxConcurrent: 1, MaxWait: 10 * time.Millisecond})
	ctx := testCtx(t)
	rel, _, err := c.Admit(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	_, queued, err := c.Admit(ctx, "t")
	if !queued {
		t.Fatalf("second admit did not queue")
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue wait exceeded" {
		t.Fatalf("err = %v, want queue-wait OverloadError", err)
	}
	// The hint is sized from MaxWait but floored at 1s: a 10ms hint would
	// round to a zero Retry-After header.
	if oe.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want clamped 1s", oe.RetryAfter)
	}
}

// TestExpiredDeadlineSpendsNothing: the expired-deadline shed runs before
// tenant accounting — a request that can never run must not consume a
// tenant token — and the refusal carries the tenant, keeping 429
// telemetry consistent with the budget path.
func TestExpiredDeadlineSpendsNothing(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	// Rate low enough that a burned token would not refill within the test.
	c := New(Options{TenantRate: 0.001, TenantBurst: 1, now: func() time.Time { return clock }})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	_, _, err := c.Admit(ctx, "alice")
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "deadline elapsed before admission" {
		t.Fatalf("err = %v, want expired-deadline shed", err)
	}
	if oe.Tenant != "alice" {
		t.Fatalf("Tenant = %q, want %q", oe.Tenant, "alice")
	}
	// The shed burned no token: alice's full burst is still available.
	rel, _, err := c.Admit(context.Background(), "alice")
	if err != nil {
		t.Fatalf("expired-deadline shed consumed the tenant token: %v", err)
	}
	rel()
}

// TestRetryAfterClamped is the regression table for the zero/negative
// Retry-After bug class: every refusal path whose sized hint can compute to
// under a second — most acutely a queued request whose deadline had already
// elapsed at shed time, where the "time remaining" hint is negative — must
// surface an OverloadError with RetryAfter ≥ 1s.
func TestRetryAfterClamped(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	cases := []struct {
		name   string
		reason string
		setup  func(t *testing.T) (*Controller, context.Context)
	}{
		{
			name:   "expired deadline shed",
			reason: "deadline elapsed before admission",
			setup: func(t *testing.T) (*Controller, context.Context) {
				c := New(Options{MaxConcurrent: 1})
				rel, _, err := c.Admit(context.Background(), "t")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rel)
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
				t.Cleanup(cancel)
				return c, ctx
			},
		},
		{
			name:   "queue wait exceeded",
			reason: "queue wait exceeded",
			setup: func(t *testing.T) (*Controller, context.Context) {
				c := New(Options{MaxConcurrent: 1, MaxWait: 5 * time.Millisecond})
				rel, _, err := c.Admit(context.Background(), "t")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rel)
				return c, testCtx(t)
			},
		},
		{
			name:   "tenant refill sliver",
			reason: "tenant budget exhausted",
			setup: func(t *testing.T) (*Controller, context.Context) {
				// Rate 500/s: the refill hint after a spent burst is 2ms.
				c := New(Options{TenantRate: 500, TenantBurst: 1, now: func() time.Time { return clock }})
				rel, _, err := c.Admit(context.Background(), "t")
				if err != nil {
					t.Fatal(err)
				}
				rel()
				return c, testCtx(t)
			},
		},
		{
			name:   "no queue at capacity",
			reason: "at capacity",
			setup: func(t *testing.T) (*Controller, context.Context) {
				c := New(Options{MaxConcurrent: 1, MaxQueue: -1})
				rel, _, err := c.Admit(context.Background(), "t")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rel)
				return c, testCtx(t)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, ctx := tc.setup(t)
			_, _, err := c.Admit(ctx, "t")
			var oe *OverloadError
			if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
				t.Fatalf("err = %v, want OverloadError", err)
			}
			if oe.Reason != tc.reason {
				t.Fatalf("Reason = %q, want %q", oe.Reason, tc.reason)
			}
			if oe.RetryAfter < time.Second {
				t.Fatalf("RetryAfter = %v, want ≥ 1s", oe.RetryAfter)
			}
		})
	}
}

func TestQueueHonorsContext(t *testing.T) {
	c := New(Options{MaxConcurrent: 1})
	rel, _, err := c.Admit(testCtx(t), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Admit(ctx, "t")
		done <- err
	}()
	waitFor(t, func() bool { return c.Queued() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued admit err = %v, want context.Canceled", err)
	}
	if got := c.Queued(); got != 0 {
		t.Fatalf("Queued after cancel = %d, want 0", got)
	}
}

func TestTenantBudget(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	c := New(Options{TenantRate: 1, TenantBurst: 2, now: func() time.Time { return clock }})
	ctx := testCtx(t)
	// Burst of 2 admitted, third refused with a refill-sized hint.
	for i := 0; i < 2; i++ {
		rel, _, err := c.Admit(ctx, "alice")
		if err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		rel()
	}
	_, _, err := c.Admit(ctx, "alice")
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Tenant != "alice" {
		t.Fatalf("over-budget err = %v, want tenant OverloadError", err)
	}
	if oe.RetryAfter <= 0 || oe.RetryAfter > 2*time.Second {
		t.Fatalf("RetryAfter = %v, want (0, 2s]", oe.RetryAfter)
	}
	// Other tenants are unaffected.
	if rel, _, err := c.Admit(ctx, "bob"); err != nil {
		t.Fatalf("bob admit: %v", err)
	} else {
		rel()
	}
	// After a second of refill alice gets one more.
	clock = clock.Add(time.Second)
	rel, _, err := c.Admit(ctx, "alice")
	if err != nil {
		t.Fatalf("post-refill admit: %v", err)
	}
	rel()
	if _, _, err := c.Admit(ctx, "alice"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second post-refill admit err = %v, want ErrOverloaded", err)
	}
}

func TestTenantTableEviction(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	c := New(Options{TenantRate: 0.001, TenantBurst: 1, now: func() time.Time { return clock }})
	c.buckets.max = 2
	ctx := testCtx(t)
	spend := func(tenant string) error {
		rel, _, err := c.Admit(ctx, tenant)
		if err == nil {
			rel()
		}
		return err
	}
	if err := spend("a"); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Millisecond)
	if err := spend("b"); err != nil {
		t.Fatal(err)
	}
	// "a" is now empty and stalest. A third tenant evicts it.
	clock = clock.Add(time.Millisecond)
	if err := spend("c"); err != nil {
		t.Fatal(err)
	}
	if n := len(c.buckets.m); n != 2 {
		t.Fatalf("bucket table size = %d, want 2", n)
	}
	// Evicted "a" restarts with a full burst and is admitted again.
	clock = clock.Add(time.Millisecond)
	if err := spend("a"); err != nil {
		t.Fatalf("evicted tenant readmission: %v", err)
	}
}

// TestConcurrentAdmitCap hammers the gate and asserts the high-water mark of
// admitted callers never exceeds the cap (run with -race).
func TestConcurrentAdmitCap(t *testing.T) {
	const cap, n = 3, 64
	c := New(Options{MaxConcurrent: cap})
	ctx := testCtx(t)
	var running, maxRunning atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, _, err := c.Admit(ctx, "t")
			if err != nil {
				t.Errorf("admit: %v", err)
				return
			}
			defer rel()
			r := running.Add(1)
			defer running.Add(-1)
			for m := maxRunning.Load(); r > m && !maxRunning.CompareAndSwap(m, r); m = maxRunning.Load() {
			}
		}()
	}
	wg.Wait()
	if got := maxRunning.Load(); got < 1 || got > cap {
		t.Fatalf("%d admissions ran at once, cap %d", got, cap)
	}
	if got := len(c.sem); got != 0 {
		t.Fatalf("%d slots held after drain", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
