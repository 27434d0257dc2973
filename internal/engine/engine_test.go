package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"tessel/internal/core"
	"tessel/internal/placement"
	"tessel/internal/sched"
)

func mshape(t testing.TB) *sched.Placement {
	t.Helper()
	p, err := placement.MShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func vshape(t testing.TB) *sched.Placement {
	t.Helper()
	p, err := placement.VShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCacheHitSkipsSearch is the core serving property: the second request
// for the same placement is served from the cache — the repetend solver is
// not invoked again — even when the micro-batch count differs.
func TestCacheHitSkipsSearch(t *testing.T) {
	e := New(Options{})
	p := mshape(t)
	ctx := context.Background()

	cold, info, err := e.Search(ctx, p, core.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || info.Shared {
		t.Fatalf("cold request reported info=%+v", info)
	}
	if cold.Stats.Solved == 0 {
		t.Fatal("cold search solved no repetends")
	}
	if cold.Stats.PeriodProbes == 0 || cold.Stats.PeriodRelaxations == 0 {
		t.Fatalf("cold search reported no period-machinery effort: %+v", cold.Stats)
	}
	if cold.Stats.WarmupNodes == 0 || cold.Stats.CooldownNodes == 0 {
		t.Fatalf("cold search reported no completion effort: %+v", cold.Stats)
	}

	warm, info, err := e.Search(ctx, p, core.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatalf("repeat request missed the cache: %+v", info)
	}
	if warm != cold {
		t.Fatal("same-N hit should return the cached result as-is")
	}

	ext, info, err := e.Search(ctx, p, core.Options{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatalf("different-N request missed the cache: %+v", info)
	}
	if ext.N != 20 {
		t.Fatalf("extended N = %d", ext.N)
	}
	if ext.Repetend != cold.Repetend {
		t.Fatal("extension re-searched the repetend")
	}
	// Every cache hit reports the originating search's effort, whether it
	// returned the cached result directly or extended it.
	if ext.Stats != cold.Stats {
		t.Fatalf("extended hit stats %+v != originating search stats %+v", ext.Stats, cold.Stats)
	}
	if err := ext.Full.Validate(sched.ValidateOptions{Memory: sched.Unbounded}); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Shared != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFingerprintStability: a placement decoded, cloned, or rebuilt must
// share a cache entry with the original.
func TestFingerprintStability(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	p := vshape(t)
	if _, _, err := e.Search(ctx, p, core.Options{N: 4}); err != nil {
		t.Fatal(err)
	}
	_, info, err := e.Search(ctx, p.Clone(), core.Options{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatal("clone missed the cache")
	}
	q := vshape(t)
	_, info, err = e.Search(ctx, q, core.Options{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatal("rebuilt placement missed the cache")
	}
}

// TestOptionNormalization: option spellings core.Search treats identically
// must share a key (Memory 0 vs Unbounded, zero vs default budgets).
func TestOptionNormalization(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	p := vshape(t)
	if _, _, err := e.Search(ctx, p, core.Options{N: 4}); err != nil {
		t.Fatal(err)
	}
	_, info, err := e.Search(ctx, p, core.Options{
		N:              4,
		Memory:         sched.Unbounded,
		MaxAssignments: core.DefaultMaxAssignments,
		SolverNodes:    core.DefaultSolverNodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatal("normalized-equal options missed the cache")
	}
	// A genuinely different option must not share the entry.
	_, info, err = e.Search(ctx, p, core.Options{N: 4, DisableLazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || info.Shared {
		t.Fatal("eager search hit the lazy search's entry")
	}
}

// TestRequestKeySpellings pins requestKey for option spellings that must share
// or split a cache entry. The keys are literals recorded before requestKey and
// Search shared core.Options.Resolve: snapshot and peer entries carry them, so
// none may move.
func TestRequestKeySpellings(t *testing.T) {
	const def = "|mem=2305843009213693951|nr=8|asn=100000|nod=400000|to=0|lazy=true"
	m, v := mshape(t), vshape(t)
	for _, c := range []struct {
		p    *sched.Placement
		opts core.Options
		want string
	}{
		{m, core.Options{}, def},
		{m, core.Options{Memory: sched.Unbounded, MaxNR: core.DefaultMaxNR, MaxAssignments: core.DefaultMaxAssignments, SolverNodes: core.DefaultSolverNodes}, def},
		{m, core.Options{N: 12, Workers: 4, MaxNR: -1}, def},
		{m, core.Options{Memory: 6}, "|mem=6|nr=2|asn=100000|nod=400000|to=0|lazy=true"},
		{m, core.Options{Memory: 6, MaxNR: 2}, "|mem=6|nr=2|asn=100000|nod=400000|to=0|lazy=true"},
		{m, core.Options{Memory: 3}, "|mem=3|nr=1|asn=100000|nod=400000|to=0|lazy=true"},
		{v, core.Options{}, def},
		{v, core.Options{Memory: 6}, "|mem=6|nr=6|asn=100000|nod=400000|to=0|lazy=true"},
		{v, core.Options{Memory: 6, MaxNR: -2}, "|mem=6|nr=6|asn=100000|nod=400000|to=0|lazy=true"},
		{v, core.Options{Memory: 6, MaxNR: 2}, "|mem=6|nr=2|asn=100000|nod=400000|to=0|lazy=true"},
		{v, core.Options{Memory: 3}, "|mem=3|nr=3|asn=100000|nod=400000|to=0|lazy=true"},
		{v, core.Options{MaxNR: 3, MaxAssignments: 5, SolverNodes: 7, SolverTimeout: 1500 * time.Millisecond, DisableLazy: true},
			"|mem=2305843009213693951|nr=3|asn=5|nod=7|to=1500000000|lazy=false"},
	} {
		fp := sched.Fingerprint(c.p)
		if got := requestKey(fp, c.p, c.opts); got != fp+c.want {
			t.Errorf("%s %+v: key %q, want fingerprint + %q", c.p.Name, c.opts, got, c.want)
		}
	}
}

// TestRequestKeyMatchesSprintf holds the appended key to the fmt.Sprintf
// format it replaced, over random options: negative, zero, small and 64-bit
// values of every resolved field, lazy on and off.
func TestRequestKeyMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	value := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return -rng.Int63()
		case 2:
			return rng.Int63n(1000)
		}
		return rng.Int63()
	}
	for _, p := range []*sched.Placement{mshape(t), vshape(t)} {
		fp := sched.Fingerprint(p)
		for i := 0; i < 500; i++ {
			opts := core.Options{Memory: int(value()), MaxNR: int(value()), MaxAssignments: int(value()),
				SolverNodes: value(), SolverTimeout: time.Duration(value()), DisableLazy: rng.Intn(2) == 0}
			o := opts.Resolve(p)
			want := fmt.Sprintf("%s|mem=%d|nr=%d|asn=%d|nod=%d|to=%d|lazy=%t",
				fp, o.Memory, o.MaxNR, o.MaxAssignments, o.SolverNodes, o.SolverTimeout, !o.DisableLazy)
			if got := requestKey(fp, p, opts); got != want {
				t.Fatalf("%s %+v: key %q, want %q", p.Name, opts, got, want)
			}
		}
	}
}

// TestSingleflight launches concurrent identical cold requests and checks
// exactly one search ran; the rest either coalesced onto it or (if they
// arrived after it finished) hit the cache.
func TestSingleflight(t *testing.T) {
	e := New(Options{})
	p := mshape(t)
	const g = 8
	var wg sync.WaitGroup
	infos := make([]CacheInfo, g)
	errs := make([]error, g)
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, infos[i], errs[i] = e.Search(context.Background(), p, core.Options{N: 12})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.Misses != 1 {
		t.Fatalf("expected exactly one search, got %d misses (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Shared != g-1 {
		t.Fatalf("hits %d + shared %d != %d", st.Hits, st.Shared, g-1)
	}
}

// TestLRUEviction: with capacity 1, alternating placements evict each other
// and re-searching the first is a miss again.
func TestLRUEviction(t *testing.T) {
	e := New(Options{CacheSize: 1})
	ctx := context.Background()
	a, b := vshape(t), mshape(t)
	if _, _, err := e.Search(ctx, a, core.Options{N: 4}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Search(ctx, b, core.Options{N: 4}); err != nil {
		t.Fatal(err)
	}
	_, info, err := e.Search(ctx, a, core.Options{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit {
		t.Fatal("evicted entry served a hit")
	}
	st := e.Stats()
	if st.Evictions == 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSearchCancelledContext: a cancelled context is rejected without
// polluting the cache.
func TestSearchCancelledContext(t *testing.T) {
	e := New(Options{})
	p := vshape(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Search(ctx, p, core.Options{N: 4}); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if st := e.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled search cached an entry: %+v", st)
	}
	// The same placement must still be searchable afterwards.
	if _, _, err := e.Search(context.Background(), p, core.Options{N: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeNRejected: a negative micro-batch count is an error at every
// layer (previously a makeslice panic deep in the solver), and it must not
// strand the singleflight slot for the key.
func TestNegativeNRejected(t *testing.T) {
	e := New(Options{})
	p := vshape(t)
	ctx := context.Background()
	if _, _, err := e.Search(ctx, p, core.Options{N: -5}); err == nil {
		t.Fatal("negative N accepted")
	}
	// The key must be usable immediately afterwards.
	if _, _, err := e.Search(ctx, p, core.Options{N: -5}); err == nil {
		t.Fatal("negative N accepted on retry")
	}
	if _, _, err := e.Search(ctx, p, core.Options{N: 4}); err != nil {
		t.Fatalf("key unusable after failed search: %v", err)
	}
}

// TestConcurrentSearchCap: with the cold-search semaphore at 1, distinct
// placements still all complete (serialized, not rejected), and a cancelled
// waiter gets its own ctx error without disturbing the slot.
func TestConcurrentSearchCap(t *testing.T) {
	e := New(Options{MaxConcurrentSearches: 1})
	ctx := context.Background()
	placements := []*sched.Placement{vshape(t), mshape(t)}
	var wg sync.WaitGroup
	errs := make([]error, len(placements))
	for i, p := range placements {
		wg.Add(1)
		go func(i int, p *sched.Placement) {
			defer wg.Done()
			_, _, errs[i] = e.Search(ctx, p, core.Options{N: 4})
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("placement %d: %v", i, err)
		}
	}
	if st := e.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSearchInvalidRequestTyped: request-validation failures are wrapped in
// ErrInvalidRequest so protocol front-ends can map them to 400s.
func TestSearchInvalidRequestTyped(t *testing.T) {
	eng := New(Options{})
	if _, _, err := eng.Search(context.Background(), vshape(t), core.Options{N: -1}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("negative N: want ErrInvalidRequest, got %v", err)
	}
	// Negative budgets: refused before the key is built — no miss counted,
	// nothing cached, nothing left in flight.
	for _, opts := range []core.Options{
		{Memory: -5},
		{MaxAssignments: -1},
		{SolverNodes: -1},
		{SolverTimeout: -time.Millisecond},
		{MaxNR: core.MaxNRLimit + 1},
	} {
		if _, _, err := eng.Serve(context.Background(), Request{Placement: vshape(t), Options: opts, AllowDegraded: true}); !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("%+v: want ErrInvalidRequest, got %v", opts, err)
		}
	}
	eng.mu.Lock()
	inFlight := len(eng.flight)
	eng.mu.Unlock()
	if st := eng.Stats(); st.Misses != 0 || st.Entries != 0 || st.Degraded != 0 || inFlight != 0 {
		t.Fatalf("rejected requests left state behind: %+v, %d in flight", st, inFlight)
	}
	// The largest repetend size cap the search arithmetic is proven for is a
	// valid request.
	if _, _, err := eng.Search(context.Background(), vshape(t), core.Options{MaxNR: core.MaxNRLimit}); err != nil {
		t.Fatalf("max_nr %d: %v", core.MaxNRLimit, err)
	}
	bad := &sched.Placement{Name: "bad", NumDevices: 1,
		Stages: []sched.Stage{{Name: "s", Time: 1}}, Deps: [][]int{nil}}
	if _, _, err := eng.Search(context.Background(), bad, core.Options{}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("invalid placement: want ErrInvalidRequest, got %v", err)
	}
	// On one device, f0 → f1 → b1 → b0 with memory deltas ±2^62 peaks at
	// 2^63, but the memory sums wrap that peak to a negative number that fits
	// 2^62+1: an invalid request, never a served schedule.
	wrap := &sched.Placement{Name: "wrap", NumDevices: 1, Deps: [][]int{{1}, {2}, {3}, nil}}
	for i, mem := range []int{1 << 62, 1 << 62, -1 << 62, -1 << 62} {
		wrap.Stages = append(wrap.Stages, sched.Stage{Name: fmt.Sprint(i), Time: 1, Mem: mem, Devices: []sched.DeviceID{0}})
	}
	if res, _, err := eng.Search(context.Background(), wrap, core.Options{N: 4, Memory: 1<<62 + 1}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("wrapping stage memory: want ErrInvalidRequest, got %v (result %+v)", err, res)
	}
	// A well-formed but unsatisfiable request is a search failure, not an
	// invalid request: this placement's activation spike never fits the
	// memory capacity.
	heavy := &sched.Placement{Name: "heavy", NumDevices: 1,
		Stages: []sched.Stage{
			{Name: "f", Kind: sched.Forward, Time: 1, Mem: 5, Devices: []sched.DeviceID{0}},
			{Name: "b", Kind: sched.Backward, Time: 1, Mem: -5, Devices: []sched.DeviceID{0}},
		},
		Deps: [][]int{{1}, nil}}
	if _, _, err := eng.Search(context.Background(), heavy, core.Options{Memory: 3}); err == nil || errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("infeasible search: want a non-request error, got %v", err)
	}
}

// TestExtensionTruncationReported: an extension whose own phase solves ran
// out of budget says so, even though the rest of its Stats are the
// originating search's — and such a solve is not kept, so the next request
// with a real budget is answered in full and reports a proven result.
func TestExtensionTruncationReported(t *testing.T) {
	ctx := context.Background()
	p := mshape(t)
	cached, err := core.Search(ctx, p, core.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.Truncated {
		t.Fatal("the search itself was truncated")
	}
	starved, err := extendTo(ctx, cached, core.Options{N: 20, SolverNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !starved.Stats.Truncated {
		t.Fatal("a 1-node extension reported truncated = false")
	}
	if starved.Stats.Solved != cached.Stats.Solved || starved.Stats.SolverNodes != cached.Stats.SolverNodes {
		t.Fatalf("extension stats %+v are not the search's %+v", starved.Stats, cached.Stats)
	}
	full, err := extendTo(ctx, cached, core.Options{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Truncated {
		t.Fatal("a full-budget extension after a starved one reported truncated = true")
	}
	fresh, err := core.Search(ctx, p, core.Options{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	if sched.FingerprintSchedule(full.Full) != sched.FingerprintSchedule(fresh.Full) {
		t.Fatal("the starved extension's solves leaked into the next one")
	}
}

// BenchmarkEngineCacheHeap fills a default engine with DefaultCacheSize
// searched results, the way zipf_mix's identities fill the server's cache:
// names over its eight bases (v4, x4, k4, m4i, nn4i, x4m8, v6m4, k6i), each
// searched at an n drawn from {8, 16, 32, 64, 128} by a fixed seed. It
// reports the live heap the cache holds per entry after a GC, heap_B/entry,
// and again once every entry has served one hit at n = 256, which leaves
// its completion template filled and its certificate built,
// hit_heap_B/entry.
func BenchmarkEngineCacheHeap(b *testing.B) {
	bases := []struct {
		build     func(placement.Config) (*sched.Placement, error)
		devices   int
		inference bool
		memory    int
	}{
		{placement.VShape, 4, false, 0}, {placement.XShape, 4, false, 0}, {placement.KShape, 4, false, 0},
		{placement.MShape, 4, true, 0}, {placement.NNShape, 4, true, 0}, {placement.XShape, 4, false, 8},
		{placement.VShape, 6, false, 4}, {placement.KShape, 6, true, 0},
	}
	ns := []int{8, 16, 32, 64, 128}
	var heap, hitHeap uint64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(42))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e := New(Options{})
		var served []*sched.Placement
		for j := 0; j < DefaultCacheSize; j++ {
			c := bases[j%len(bases)]
			p, err := c.build(placement.Config{Devices: c.devices})
			if err != nil {
				b.Fatal(err)
			}
			if c.inference {
				p = placement.Inference(p)
			}
			p.Name = fmt.Sprintf("%s-%02d", p.Name, j/len(bases))
			if _, _, err := e.Search(context.Background(), p, core.Options{N: ns[rng.Intn(len(ns))], Memory: c.memory}); err != nil {
				b.Fatal(err)
			}
			served = append(served, p)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if st := e.Stats(); st.Entries != DefaultCacheSize {
			b.Fatalf("%d cached entries, want %d", st.Entries, DefaultCacheSize)
		}
		heap = after.HeapAlloc - before.HeapAlloc
		for j, p := range served {
			if _, _, err := e.Search(context.Background(), p, core.Options{N: 256, Memory: bases[j%len(bases)].memory}); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if st := e.Stats(); st.Hits != DefaultCacheSize {
			b.Fatalf("%d hits, want %d", st.Hits, DefaultCacheSize)
		}
		hitHeap = after.HeapAlloc - before.HeapAlloc
		runtime.KeepAlive(e)
	}
	b.ReportMetric(float64(heap)/DefaultCacheSize, "heap_B/entry")
	b.ReportMetric(float64(hitHeap)/DefaultCacheSize, "hit_heap_B/entry")
}
