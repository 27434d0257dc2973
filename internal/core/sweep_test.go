package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"tessel/internal/faultpoint"
	"tessel/internal/repetend"
)

// fallbackShapes are the catalog placements whose memory cap keeps every
// repetend above the device-work lower bound: the pass aimed at the bound
// finds nothing and the unaimed pass decides.
var fallbackShapes = map[string]bool{"x8m4": true, "nn4m8": true, "v6m4": true}

// TestSearchSweepPasses reads from Stats which of the two sweep passes a
// search took. A placement that reaches the lower bound stops in the first
// pass: it enumerates no more than one pass up to the N_R it stopped in and
// reports an early exit. One that cannot enumerates everything twice — the
// whole first pass for nothing, then the whole second pass, which has no
// early exit to take. The fault point between the passes is the second
// witness.
func TestSearchSweepPasses(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	var fallbacks atomic.Int64
	faultpoint.Arm(faultpoint.CoreSweepFallback, func() error { fallbacks.Add(1); return nil })
	for _, c := range catalogShapes {
		t.Run(c.name, func(t *testing.T) {
			p, opts := catalogPlacement(t, c.name)
			opts.Workers = 1
			fallbacks.Store(0)
			res, err := Search(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			onePass := func(maxNR int) int {
				total := 0
				for nr := 1; nr <= maxNR; nr++ {
					n, err := repetend.Count(p, nr)
					if err != nil {
						t.Fatal(err)
					}
					total += n
				}
				return total
			}
			st := res.Stats
			if fallbackShapes[c.name] {
				if want := 2 * onePass(MaxInflight(p, opts.Memory)); st.Assignments != want || st.EarlyExit || fallbacks.Load() != 1 {
					t.Fatalf("%d assignments (two full passes are %d), early exit %v, %d fallbacks", st.Assignments, want, st.EarlyExit, fallbacks.Load())
				}
				if res.Repetend.Period <= res.LowerBound {
					t.Fatalf("period %d reaches the lower bound %d after a failed first pass", res.Repetend.Period, res.LowerBound)
				}
				return
			}
			if limit := onePass(st.NRSwept); st.Assignments > limit || !st.EarlyExit || fallbacks.Load() != 0 {
				t.Fatalf("%d assignments (one pass to N_R %d is %d), early exit %v, %d fallbacks", st.Assignments, st.NRSwept, limit, st.EarlyExit, fallbacks.Load())
			}
			if res.Repetend.Period != res.LowerBound {
				t.Fatalf("period %d misses the lower bound %d, yet the first pass kept it", res.Repetend.Period, res.LowerBound)
			}
		})
	}
}

// TestChaosCancelBetweenSweepPasses cancels the search at the one point where
// no worker is running to notice: after the first pass has come back empty and
// before the second starts. Search must return the context's error, not the
// "no feasible repetend" of an exhausted sweep.
func TestChaosCancelBetweenSweepPasses(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p, opts := catalogPlacement(t, "nn4m8")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultpoint.Arm(faultpoint.CoreSweepFallback, func() error { cancel(); return nil })
	res, err := Search(ctx, p, opts)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res %v err %v, want context.Canceled", res, err)
	}
	// An error armed at the point surfaces as Search's error.
	injected := errors.New("injected fallback fault")
	faultpoint.Arm(faultpoint.CoreSweepFallback, func() error { return injected })
	if _, err := Search(context.Background(), p, opts); !errors.Is(err, injected) {
		t.Fatalf("err %v, want the injected fault", err)
	}
	faultpoint.Disarm(faultpoint.CoreSweepFallback)
	if _, err := Search(context.Background(), p, opts); err != nil {
		t.Fatalf("search after the faults: %v", err)
	}
}

// TestSearchStatsCoverPrunedAssignments: the effort counters sum over every
// solve that ran, not only over the assignments that came back as repetends.
// Since the order check, an assignment of a lower-bound-reaching placement
// gets as far as the solver only if some per-device order does reach the bound
// — and on the K-shape with six devices the instance solve and local search
// miss that order for four assignments before the winner. Their solves, probes
// and swaps are most of what the search reports. The floor is taken
// independently: the same assignments solved one by one, in enumeration order
// up to the winner, on one instance cache as the sweep does it. (The sweep's
// own total may sit above the floor by the few assignments its worker takes on
// while the collector is still verifying the winner.)
func TestSearchStatsCoverPrunedAssignments(t *testing.T) {
	p, opts := catalogPlacement(t, "k6")
	opts.Workers = 1
	res, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var floor repetend.Effort
	missed := 0 // let through by the check, pruned after solve and local search
	ro := repetend.SolveOptions{PeriodUpperBound: res.LowerBound, Cache: repetend.NewSolveCache(), Effort: &floor}
	var winner *repetend.Repetend
	for nr := 1; nr <= res.Repetend.NR && winner == nil; nr++ {
		if _, err := repetend.Enumerate(p, nr, func(a repetend.Assignment) bool {
			before := floor
			winner, err = repetend.Solve(context.Background(), p, a, ro)
			if winner == nil && floor.OrderChecks > before.OrderChecks && floor.OrderPruned == before.OrderPruned {
				if !errors.Is(err, repetend.ErrPruned) || floor.SolverNodes+floor.PeriodProbes == before.SolverNodes+before.PeriodProbes {
					t.Fatalf("%v passed the order check and then: err %v, effort %+v after %+v", a, err, floor, before)
				}
				missed++
			}
			return winner == nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if winner == nil || winner.Assign.Compare(res.Repetend.Assign) != 0 {
		t.Fatalf("enumeration reaches the bound first at %v, the search returned %v", winner, res.Repetend.Assign)
	}
	if missed < 2 || floor.SolverNodes < 4*winner.SolverNodes || floor.LocalSearchSwaps <= winner.LocalSearchSwaps {
		t.Fatalf("this placement no longer prunes after solving: %d assignments missed by the heuristic, effort %+v, of which the winner %d nodes and %d swaps",
			missed, floor, winner.SolverNodes, winner.LocalSearchSwaps)
	}
	st := res.Stats
	got := repetend.Effort{
		SolverNodes: st.SolverNodes, SolverMemoHits: st.SolverMemoHits, PeriodProbes: st.PeriodProbes, PeriodRelaxations: st.PeriodRelaxations,
		LocalSearchSwaps: st.LocalSearchSwaps, OrderChecks: st.OrderChecks, OrderPruned: st.OrderPruned, OrderNodes: st.OrderNodes,
	}
	for _, c := range []struct {
		name         string
		got, atLeast int64
	}{
		{"solver nodes", got.SolverNodes, floor.SolverNodes}, {"memo hits", got.SolverMemoHits, floor.SolverMemoHits},
		{"period probes", got.PeriodProbes, floor.PeriodProbes}, {"relaxations", got.PeriodRelaxations, floor.PeriodRelaxations},
		{"swaps", got.LocalSearchSwaps, floor.LocalSearchSwaps}, {"order checks", got.OrderChecks, floor.OrderChecks},
		{"order pruned", got.OrderPruned, floor.OrderPruned}, {"order nodes", got.OrderNodes, floor.OrderNodes},
	} {
		if c.got < c.atLeast {
			t.Errorf("search reports %d %s; the assignments up to the winner alone account for %d", c.got, c.name, c.atLeast)
		}
	}
	if st.Solved < 1 || st.OrderPruned > int64(st.Pruned) || st.OrderChecks < st.OrderPruned+int64(st.Solved) || st.PeriodProbes < int64(st.Pruned) {
		t.Fatalf("counters do not add up: %+v", st)
	}
}
