package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tessel/internal/core"
	"tessel/internal/faultpoint"
	"tessel/internal/sched"
)

// The chaos tests arm process-global fault points, so none of them may run
// in parallel with each other; every test that arms a point registers
// t.Cleanup(faultpoint.Reset).

// chain builds a minimal 2-device 1F1B chain whose forward time f gives
// every value a distinct placement fingerprint — the cheap way to mint
// many distinct cache keys for overload tests.
func chain(t testing.TB, f int) *sched.Placement {
	t.Helper()
	p := &sched.Placement{
		Name:       fmt.Sprintf("chain-%d", f),
		NumDevices: 2,
		Stages: []sched.Stage{
			{Name: "f0", Kind: sched.Forward, Time: f, Mem: 1, Devices: []sched.DeviceID{0}},
			{Name: "f1", Kind: sched.Forward, Time: 1, Mem: 1, Devices: []sched.DeviceID{1}},
			{Name: "b1", Kind: sched.Backward, Time: 2, Mem: -1, Devices: []sched.DeviceID{1}},
			{Name: "b0", Kind: sched.Backward, Time: 2, Mem: -1, Devices: []sched.DeviceID{0}},
		},
		Deps: [][]int{{1}, {2}, {3}, {}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// searchFingerprint runs a fault-free cold search on a throwaway engine and
// returns the canonical fingerprint of the full schedule — the baseline the
// chaos runs must reproduce byte-identically.
func searchFingerprint(t testing.TB, p *sched.Placement, opts core.Options) string {
	t.Helper()
	res, _, err := New(Options{}).Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sched.FingerprintSchedule(res.Full)
}

// waitUntil polls cond for up to 5s; chaos tests use it only to sequence
// assertions, never to paper over a correctness race.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosSolverPanic injects a panic into a repetend-sweep solve: it must
// cross from the solver goroutine to the Search goroutine, and through the
// singleflight leader without killing the process or stranding state, and
// surface as a structured *InternalError matching ErrInternal. Once the
// fault passes, the same request must succeed with a schedule
// byte-identical to a never-faulted engine's.
func TestChaosSolverPanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p := mshape(t)
	opts := core.Options{N: 8}
	baseline := searchFingerprint(t, p, opts)

	rec := &logRecorder{}
	e := New(Options{Logf: rec.logf})
	var fired atomic.Bool
	faultpoint.Arm(faultpoint.SolverSolve, func() error {
		if fired.CompareAndSwap(false, true) {
			panic("injected solver crash")
		}
		return nil
	})

	_, info, err := e.Search(context.Background(), p, opts)
	if err == nil {
		t.Fatal("faulted search returned no error")
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("faulted search error %v does not match the internal-error sentinel", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("faulted search error %T is not *InternalError", err)
	}
	if ie.Fingerprint != info.Fingerprint {
		t.Fatalf("internal error fingerprint %s != request fingerprint %s", ie.Fingerprint, info.Fingerprint)
	}
	if rv, ok := ie.Recovered.(string); !ok || rv != "injected solver crash" {
		t.Fatalf("recovered value %v lost", ie.Recovered)
	}
	if rec.count("panicked") != 1 {
		t.Fatalf("panic logged %d times, want once: %v", rec.count("panicked"), rec.lines)
	}
	// The flight slot must not stay poisoned and the failure must not be
	// cached.
	e.mu.Lock()
	inflight, entries := len(e.flight), len(e.entries)
	e.mu.Unlock()
	if inflight != 0 || entries != 0 {
		t.Fatalf("after panic: %d in-flight, %d cached", inflight, entries)
	}

	// The fault point is now passive (fired once); the engine must recover
	// to full service with a byte-identical result.
	res, info, err := e.Search(context.Background(), p, opts)
	if err != nil {
		t.Fatalf("post-fault search: %v", err)
	}
	if info.Hit || info.Shared {
		t.Fatalf("post-fault search served from stale state: %+v", info)
	}
	if got := sched.FingerprintSchedule(res.Full); got != baseline {
		t.Fatalf("post-fault schedule fingerprint %s != fault-free baseline %s", got, baseline)
	}
}

// TestChaosOverloadSheds is the deterministic overload drill: 12 distinct
// cold requests against capacity 2 with a queue of 2, with the admitted
// searches pinned inside the singleflight window. Exactly 2 run, exactly 2
// queue, exactly 8 shed synchronously with typed Retry-After errors, the
// concurrency cap is never exceeded, and every admitted result is
// byte-identical to an unloaded engine's.
func TestChaosOverloadSheds(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	const (
		total   = 12
		slots   = 2
		queue   = 2
		shedded = total - slots - queue
	)
	e := New(Options{MaxConcurrentSearches: slots, MaxQueuedSearches: queue})

	var inWindow, leaders, maxLeaders atomic.Int32
	release := make(chan struct{})
	faultpoint.Arm(faultpoint.EngineSingleflight, func() error {
		inWindow.Add(1)
		n := leaders.Add(1)
		defer leaders.Add(-1)
		for m := maxLeaders.Load(); n > m && !maxLeaders.CompareAndSwap(m, n); m = maxLeaders.Load() {
		}
		<-release
		return nil
	})

	type outcome struct {
		idx  int
		res  *core.Result
		info CacheInfo
		err  error
	}
	outcomes := make(chan outcome, total)
	for i := 0; i < total; i++ {
		go func(i int) {
			res, info, err := e.Serve(context.Background(), Request{
				Placement: chain(t, i+1),
				Options:   core.Options{N: 6},
				Tenant:    fmt.Sprintf("tenant-%d", i),
			})
			outcomes <- outcome{i, res, info, err}
		}(i)
	}

	// The shed requests fail synchronously while the slots and queue stay
	// pinned: collect exactly the refusals first.
	var shed []outcome
	for len(shed) < shedded {
		select {
		case o := <-outcomes:
			shed = append(shed, o)
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d requests shed", len(shed), shedded)
		}
	}
	for _, o := range shed {
		if !errors.Is(o.err, ErrOverloaded) {
			t.Fatalf("request %d shed with %v, not ErrOverloaded", o.idx, o.err)
		}
		var oe *OverloadError
		if !errors.As(o.err, &oe) {
			t.Fatalf("request %d: shed error %T is not *OverloadError", o.idx, o.err)
		}
		if oe.RetryAfter <= 0 {
			t.Fatalf("request %d: no Retry-After hint: %+v", o.idx, oe)
		}
	}
	waitUntil(t, "2 searches in the singleflight window", func() bool { return inWindow.Load() == slots })
	waitUntil(t, "2 searches queued", func() bool { return e.ctrl.Queued() == queue })
	select {
	case o := <-outcomes:
		t.Fatalf("request %d finished while capacity was pinned: err=%v", o.idx, o.err)
	default:
	}

	close(release)
	admitted := make(map[int]outcome)
	for len(admitted) < slots+queue {
		select {
		case o := <-outcomes:
			if o.err != nil {
				t.Fatalf("admitted request %d failed: %v", o.idx, o.err)
			}
			admitted[o.idx] = o
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d of %d admitted requests completed", len(admitted), slots+queue)
		}
	}
	for idx, o := range admitted {
		if o.info.Degraded {
			t.Fatalf("admitted request %d flagged degraded", idx)
		}
		want := searchFingerprint(t, chain(t, idx+1), core.Options{N: 6})
		if got := sched.FingerprintSchedule(o.res.Full); got != want {
			t.Fatalf("request %d under load: fingerprint %s != unloaded baseline %s", idx, got, want)
		}
	}

	if max := maxLeaders.Load(); max != slots {
		t.Fatalf("observed %d concurrent leaders, cap is %d", max, slots)
	}
	st := e.Stats()
	if st.Admitted != slots+queue || st.Queued != queue || st.Shed != shedded {
		t.Fatalf("counters admitted=%d queued=%d shed=%d, want %d/%d/%d",
			st.Admitted, st.Queued, st.Shed, slots+queue, queue, shedded)
	}
	if st.Misses != total || st.Hits != 0 || st.Degraded != 0 {
		t.Fatalf("counters misses=%d hits=%d degraded=%d, want %d/0/0", st.Misses, st.Hits, st.Degraded, total)
	}
}

// TestChaosDegradedUnderOverload: with capacity pinned and no queue, a
// request that opted in to degradation is answered best-effort — flagged,
// counted, and never cached — and the same placement re-searched after the
// load passes gets a full cold search, not the degraded leftovers.
func TestChaosDegradedUnderOverload(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	e := New(Options{MaxConcurrentSearches: 1, MaxQueuedSearches: -1})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool
	faultpoint.Arm(faultpoint.EngineSingleflight, func() error {
		if once.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return nil
	})

	pinErr := make(chan error, 1)
	go func() {
		_, _, err := e.Serve(context.Background(), Request{Placement: chain(t, 1), Options: core.Options{N: 6}})
		pinErr <- err
	}()
	<-entered

	p := chain(t, 2)
	res, info, err := e.Serve(context.Background(), Request{Placement: p, Options: core.Options{N: 6}, AllowDegraded: true})
	if err != nil {
		t.Fatalf("degraded request failed: %v", err)
	}
	if !info.Degraded {
		t.Fatal("degraded request not flagged")
	}
	if res.Makespan <= 0 || res.Full == nil {
		t.Fatalf("degraded result unusable: %+v", res)
	}
	st := e.Stats()
	if st.Degraded != 1 || st.Shed != 0 {
		t.Fatalf("degraded=%d shed=%d, want 1/0", st.Degraded, st.Shed)
	}
	if st.Entries != 0 {
		t.Fatal("degraded result was cached")
	}

	close(release)
	if err := <-pinErr; err != nil {
		t.Fatalf("pinned search failed: %v", err)
	}
	// After the load passes the placement is still cold: a full search runs
	// and only then does it cache.
	_, info, err = e.Serve(context.Background(), Request{Placement: p, Options: core.Options{N: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || info.Degraded {
		t.Fatalf("post-load search served degraded leftovers: %+v", info)
	}
	if st := e.Stats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2 full results", st.Entries)
	}
}

// TestChaosSingleflightLeaderCancelled: a follower coalesced onto a leader
// whose context is cancelled must not inherit the leader's
// context.Canceled — it re-elects itself leader and completes the search
// with the correct result.
func TestChaosSingleflightLeaderCancelled(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p := chain(t, 3)
	opts := core.Options{N: 8}
	baseline := searchFingerprint(t, p, opts)

	e := New(Options{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	faultpoint.Arm(faultpoint.EngineSingleflight, func() error {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return nil
	})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := e.Search(leaderCtx, p, opts)
		leaderErr <- err
	}()
	<-entered

	type followerOut struct {
		res  *core.Result
		info CacheInfo
		err  error
	}
	followerCh := make(chan followerOut, 1)
	go func() {
		res, info, err := e.Search(context.Background(), p, opts)
		followerCh <- followerOut{res, info, err}
	}()
	// Give the follower time to park on the leader's flight call, so the
	// cancellation exercises re-election rather than a trivially-cold path.
	// The assertions below hold for either interleaving.
	time.Sleep(20 * time.Millisecond)

	cancelLeader()
	close(release)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v", err)
	}
	fo := <-followerCh
	if fo.err != nil {
		t.Fatalf("follower inherited the leader's fate: %v", fo.err)
	}
	if got := sched.FingerprintSchedule(fo.res.Full); got != baseline {
		t.Fatalf("re-elected search fingerprint %s != baseline %s", got, baseline)
	}
	// The re-elected search is a second miss and must now be cached.
	st := e.Stats()
	if st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("after re-election: misses=%d entries=%d, want 2/1", st.Misses, st.Entries)
	}
	if _, info, err := e.Search(context.Background(), p, opts); err != nil || !info.Hit {
		t.Fatalf("re-elected result not cached: info=%+v err=%v", info, err)
	}
}
