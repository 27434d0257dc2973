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
// On the M-shape nearly every assignment that reaches the solver is pruned
// afterwards, so the total is many times what the surviving repetend's own
// solve accounts for; and with one worker and the bound fixed at the lower
// bound from the start, the total is the same on every run.
func TestSearchStatsCoverPrunedAssignments(t *testing.T) {
	p, opts := catalogPlacement(t, "m4")
	opts.Workers = 1
	first, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.Stats, second.Stats
	if a.SolverNodes != b.SolverNodes || a.SolverMemoHits != b.SolverMemoHits {
		t.Fatalf("solver effort differs between identical one-worker searches: %d/%d nodes, %d/%d memo hits", a.SolverNodes, b.SolverNodes, a.SolverMemoHits, b.SolverMemoHits)
	}
	if a.Pruned <= a.Solved {
		t.Fatalf("%d pruned, %d solved: this placement no longer prunes after solving", a.Pruned, a.Solved)
	}
	if survivors := first.Repetend.SolverNodes * int64(a.Solved); a.SolverNodes < 8*survivors || a.SolverNodes < 1000 {
		t.Fatalf("%d solver nodes reported; the %d surviving repetends alone account for about %d", a.SolverNodes, a.Solved, survivors)
	}
	if a.PeriodProbes < int64(a.Pruned) {
		t.Fatalf("%d period probes for %d pruned assignments: each costs at least one", a.PeriodProbes, a.Pruned)
	}
}
