package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tessel/internal/faultpoint"
	"tessel/internal/placement"
	"tessel/internal/sched"
)

// catalogShapes are the 21 placements of the repository benchmark's catalog
// (benchmark/catalog.go): every paper shape across device counts, memory
// caps and the inference variants.
var catalogShapes = []struct {
	name      string
	build     func(placement.Config) (*sched.Placement, error)
	devices   int
	inference bool
	memory    int
}{
	{"m4", placement.MShape, 4, false, 0}, {"k6", placement.KShape, 6, false, 0},
	{"k6m8", placement.KShape, 6, false, 8}, {"x8m4", placement.XShape, 8, false, 4},
	{"v6", placement.VShape, 6, false, 0}, {"v6m8", placement.VShape, 6, false, 8},
	{"x8i", placement.XShape, 8, true, 0}, {"m8i", placement.MShape, 8, true, 0},
	{"nn6i", placement.NNShape, 6, true, 0}, {"v4", placement.VShape, 4, false, 0},
	{"x4", placement.XShape, 4, false, 0}, {"k4", placement.KShape, 4, false, 0},
	{"nn4m8", placement.NNShape, 4, false, 8}, {"v4i", placement.VShape, 4, true, 0},
	{"x4i", placement.XShape, 4, true, 0}, {"m4i", placement.MShape, 4, true, 0},
	{"k4i", placement.KShape, 4, true, 0}, {"nn4i", placement.NNShape, 4, true, 0},
	{"x4m8", placement.XShape, 4, false, 8}, {"v6m4", placement.VShape, 6, false, 4},
	{"k6i", placement.KShape, 6, true, 0},
}

func catalogPlacement(t testing.TB, name string) (*sched.Placement, Options) {
	t.Helper()
	for _, c := range catalogShapes {
		if c.name != name {
			continue
		}
		p, err := c.build(placement.Config{Devices: c.devices})
		if err != nil {
			t.Fatal(err)
		}
		if c.inference {
			p = placement.Inference(p)
		}
		return p, Options{Memory: c.memory}
	}
	t.Fatalf("no catalog shape %s", name)
	return nil, Options{}
}

// countSolves arms the solver's fault point with a counter of the
// branch-and-bound solves started from here on.
func countSolves(t testing.TB) *atomic.Int64 {
	t.Helper()
	n := new(atomic.Int64)
	faultpoint.Arm(faultpoint.SolverSolve, func() error { n.Add(1); return nil })
	t.Cleanup(func() { faultpoint.Disarm(faultpoint.SolverSolve) })
	return n
}

// untemplated is res as a snapshot restore or a peer fetch hands it to the
// engine: the search's outcome with no completion solved yet.
func untemplated(res *Result) *Result {
	return &Result{
		Placement: res.Placement, Repetend: res.Repetend, LowerBound: res.LowerBound, BubbleRate: res.BubbleRate,
		N: res.N, Full: res.Full, Makespan: res.Makespan,
	}
}

// sameCompletion fails unless got and want are the same schedule, item for
// item.
func sameCompletion(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Full.Items, want.Full.Items) {
		t.Fatalf("%s: schedule differs from the from-scratch completion", what)
	}
	if got.Makespan != want.Makespan || got.N != want.N {
		t.Fatalf("%s: makespan %d n %d, from scratch %d and %d", what, got.Makespan, got.N, want.Makespan, want.N)
	}
	if sched.FingerprintSchedule(got.Full) != sched.FingerprintSchedule(want.Full) {
		t.Fatalf("%s: schedule fingerprint differs from the from-scratch completion", what)
	}
}

// TestTemplateExtendMatchesFromScratch is the differential test of the
// completion template. For every catalog shape and a sweep of n it extends
// the searched result twice — the first pass may meet solver instances the
// search's own completion did not, the second must not solve at all — and
// holds each extension to the completion of a template-less copy of the
// result, which has to run its solves.
func TestTemplateExtendMatchesFromScratch(t *testing.T) {
	ctx := context.Background()
	for _, c := range catalogShapes {
		t.Run(c.name, func(t *testing.T) {
			p, opts := catalogPlacement(t, c.name)
			opts.N = 12
			res, err := Search(ctx, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			nr := res.Repetend.NR
			ns := []int{8, 16, 32, 64, 128, 256}
			for n := nr; n <= nr+6; n++ {
				ns = append(ns, n)
			}
			if nr > 1 {
				ns = append(ns, nr-1)
			}
			if !testing.Short() {
				ns = append(ns, 4096)
			}
			solves := countSolves(t)
			for pass := 1; pass <= 2; pass++ {
				for _, n := range ns {
					solves.Store(0)
					got, err := Extend(ctx, res, n, opts)
					if err != nil {
						t.Fatalf("n=%d: %v", n, err)
					}
					if memoized := solves.Swap(0); pass == 2 && memoized != 0 {
						t.Fatalf("n=%d: %d solves on the second pass, want 0", n, memoized)
					}
					want, err := Extend(ctx, untemplated(res), n, opts)
					if err != nil {
						t.Fatalf("n=%d from scratch: %v", n, err)
					}
					// Below N_R the whole problem is solved; from N_R on, a
					// repetend of N_R > 1 leaves warmup and cooldown blocks.
					if scratch := solves.Load(); scratch == 0 && (n < nr || nr > 1) {
						t.Fatalf("n=%d: the from-scratch completion ran no solve", n)
					}
					sameCompletion(t, fmt.Sprintf("n=%d pass %d", n, pass), got, want)
					if err := got.Full.Validate(sched.ValidateOptions{Memory: opts.Resolve(p).Memory}); err != nil {
						t.Fatalf("n=%d: %v", n, err)
					}
					if got.Full.Len() != n*p.K() {
						t.Fatalf("n=%d: %d blocks, want %d", n, got.Full.Len(), n*p.K())
					}
				}
			}
			if memos := res.tmpl.memos.Load(); memos != nil {
				t.Logf("N_R %d: %d memoized solves after %d extensions", nr, len(*memos), 2*len(ns))
			}
		})
	}
}

// TestTemplateKeyMissesOnOtherMemory: Extend under another memory capacity
// than the search's is another solver instance. It must be solved, not
// replayed, and what comes back must hold under the capacity asked for.
func TestTemplateKeyMissesOnOtherMemory(t *testing.T) {
	ctx := context.Background()
	p, opts := catalogPlacement(t, "nn4m8")
	opts.N = 12
	res, err := Search(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	solves := countSolves(t)
	for _, memory := range []int{0, 9, 6} {
		solves.Store(0)
		ext, err := Extend(ctx, res, 20, Options{Memory: memory})
		if solves.Load() == 0 {
			t.Fatalf("memory %d: no solve ran: the memory-8 template was replayed", memory)
		}
		if err != nil {
			continue // the repetend need not fit a smaller memory
		}
		if err := ext.Full.Validate(sched.ValidateOptions{Memory: Options{Memory: memory}.Resolve(p).Memory}); err != nil {
			t.Fatalf("memory %d: %v", memory, err)
		}
	}
	solves.Store(0)
	if _, err := Extend(ctx, res, 20, opts); err != nil || solves.Load() != 0 {
		t.Fatalf("back under the search's memory: err %v, %d solves, want a replay", err, solves.Load())
	}
}

// TestTemplateMemoizesDirectSolve: below N_R a completion is one
// whole-problem solve, which no admission control guards; the second
// request for the same n must find it in the template.
func TestTemplateMemoizesDirectSolve(t *testing.T) {
	ctx := context.Background()
	p, opts := catalogPlacement(t, "m4")
	res, err := Search(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repetend.NR < 3 {
		t.Fatalf("N_R = %d, the test needs n < N_R", res.Repetend.NR)
	}
	solves := countSolves(t)
	// n = 2 is solved to proven optimality; n = 5 runs out of nodes, which is
	// as much a function of the instance, and must stay reported.
	for _, n := range []int{2, 5} {
		solves.Store(0)
		first, err := Extend(ctx, res, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if solves.Load() != 1 {
			t.Fatalf("first n=%d: %d solves, want 1", n, solves.Load())
		}
		second, err := Extend(ctx, res, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if solves.Load() != 1 {
			t.Fatalf("second n=%d: %d more solves, want 0", n, solves.Load()-1)
		}
		sameCompletion(t, fmt.Sprintf("second n=%d", n), second, first)
		if first.Stats.Truncated != (n == 5) || second.Stats.Truncated != first.Stats.Truncated {
			t.Fatalf("n=%d: truncated %t then %t", n, first.Stats.Truncated, second.Stats.Truncated)
		}
		direct, _, err := TimeOptimal(ctx, p, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(first.Full.Items, direct.Items) {
			t.Fatalf("the n=%d completion is not TimeOptimal's schedule", n)
		}
	}
}

// TestTemplateMemoizesNodeLimitedSolveUnderTimeout: whether a truncated solve
// is stored depends on the node budget alone, not on the clock. m4's n = 5
// solve cut at 200 nodes under a 1 ns wall-clock budget is node-limited — the
// solver first reads the clock at node 256 — so it is stored, and the second
// Extend replays it.
func TestTemplateMemoizesNodeLimitedSolveUnderTimeout(t *testing.T) {
	ctx := context.Background()
	p, opts := catalogPlacement(t, "m4")
	res, err := Search(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SolverNodes, opts.SolverTimeout = 200, time.Nanosecond
	solves := countSolves(t)
	first, err := Extend(ctx, res, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if solves.Load() != 1 || !first.Stats.Truncated {
		t.Fatalf("first Extend: %d solves, truncated %t, want 1 truncated solve", solves.Load(), first.Stats.Truncated)
	}
	second, err := Extend(ctx, res, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if solves.Load() != 1 || !second.Stats.Truncated {
		t.Fatalf("second Extend: %d more solves, truncated %t, want a truncated replay", solves.Load()-1, second.Stats.Truncated)
	}
	sameCompletion(t, "second Extend", second, first)
}

// TestChaosTemplateInterruptedFill: a first Extend that dies inside its
// cooldown solve — cancelled, or failed by the solver — publishes nothing
// that was not finished, and the next Extend completes and matches a
// from-scratch completion. m4's cooldown solve is proven in fewer nodes than
// the solver's first context poll, so the cancel case hands back ctx's error
// from the fault point, as the solve's own poll would on a longer instance.
func TestChaosTemplateInterruptedFill(t *testing.T) {
	p, opts := catalogPlacement(t, "m4")
	res, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Extend(context.Background(), untemplated(res), 40, opts)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected solver failure")
	for _, fault := range []string{"cancel", "error"} {
		t.Run(fault, func(t *testing.T) {
			shared := untemplated(res)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			faultpoint.Arm(faultpoint.SolverSolve, func() error {
				if calls.Add(1) != 2 { // the warmup solve runs, the cooldown solve dies
					return nil
				}
				if fault == "error" {
					return boom
				}
				cancel()
				return ctx.Err()
			})
			t.Cleanup(func() { faultpoint.Disarm(faultpoint.SolverSolve) })
			_, err := Extend(ctx, shared, 40, opts)
			if fault == "cancel" && !errors.Is(err, context.Canceled) || fault == "error" && !errors.Is(err, boom) {
				t.Fatalf("interrupted Extend returned %v", err)
			}
			if memos := shared.tmpl.memos.Load(); memos == nil || len(*memos) != 1 {
				t.Fatalf("after the interrupted fill the template holds %v, want the finished warmup solve only", memos)
			}
			calls.Store(2) // no further fault
			got, err := Extend(context.Background(), shared, 40, opts)
			if err != nil {
				t.Fatal(err)
			}
			if calls.Load() != 3 {
				t.Fatalf("%d solves after the interrupted fill, want the cooldown only", calls.Load()-2)
			}
			sameCompletion(t, "after "+fault, got, want)
		})
	}
}

// TestChaosTemplateConcurrentFirstExtend races eight goroutines through the
// first Extend of one shared result, each to its own n (run under -race).
func TestChaosTemplateConcurrentFirstExtend(t *testing.T) {
	ctx := context.Background()
	p, opts := catalogPlacement(t, "k4")
	res, err := Search(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ns := []int{2, 3, 4, 9, 17, 33, 64, 100}
	want := make([]*Result, len(ns))
	for i, n := range ns {
		if want[i], err = Extend(ctx, untemplated(res), n, opts); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 5; round++ {
		shared := untemplated(res)
		got := make([]*Result, len(ns))
		errs := make([]error, len(ns))
		var wg sync.WaitGroup
		for i, n := range ns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = Extend(ctx, shared, n, opts)
			}()
		}
		wg.Wait()
		for i, n := range ns {
			if errs[i] != nil {
				t.Fatalf("n=%d: %v", n, errs[i])
			}
			sameCompletion(t, fmt.Sprintf("round %d n=%d", round, n), got[i], want[i])
		}
		solves := countSolves(t)
		for _, n := range ns {
			if _, err := Extend(ctx, shared, n, opts); err != nil {
				t.Fatal(err)
			}
		}
		if solves.Load() != 0 {
			t.Fatalf("round %d: %d solves after the race, want a full template", round, solves.Load())
		}
		faultpoint.Disarm(faultpoint.SolverSolve)
	}
}
