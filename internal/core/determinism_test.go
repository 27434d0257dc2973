package core

import (
	"context"
	"testing"

	"tessel/internal/sched"
)

// TestSearchDeterministicAcrossWorkers is the regression test for the
// incumbent-pruned sweep: the chosen repetend and the completed schedule
// must be byte-identical no matter how many solver goroutines the sweep fans
// out over — including the early-exit placements (v/x/k reach the lower
// bound) and the pruning-heavy m-shape. Run under -race in CI, this also
// checks that the solvers share nothing with the Search goroutine but their
// jobs.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker sweeps are slow in -short mode")
	}
	for _, tc := range []struct {
		shape  string
		memory int
	}{
		{"v-shape", 0},
		{"x-shape", 0},
		{"k-shape", 0},
		{"m-shape", 0},
		{"v-shape", 4},
	} {
		t.Run(tc.shape, func(t *testing.T) {
			p := shape(t, tc.shape, 4)
			opts := Options{N: 8, Memory: tc.memory}
			opts.Workers = 1
			base, err := Search(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := sched.FingerprintSchedule(base.Full)
			// Repeat the parallel searches: a race between a solver and the
			// Search goroutine would only show up intermittently.
			for _, workers := range []int{2, 8, 8, 8} {
				opts.Workers = workers
				res, err := Search(context.Background(), p, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Repetend.Period != base.Repetend.Period {
					t.Fatalf("workers=%d: period %d != %d", workers, res.Repetend.Period, base.Repetend.Period)
				}
				if res.Repetend.Assign.Compare(base.Repetend.Assign) != 0 {
					t.Fatalf("workers=%d: assignment %v != %v", workers, res.Repetend.Assign, base.Repetend.Assign)
				}
				if got := sched.FingerprintSchedule(res.Full); got != want {
					t.Fatalf("workers=%d: schedule fingerprint %s != %s", workers, got, want)
				}
			}
		})
	}
}

// TestSearchIncumbentPrunesSweep checks that the incumbent actually
// bites on a pruning-friendly placement: a default m-shape search must
// discard far more candidates than it solves. The aimed pass discards nearly
// all of them as whole subtrees, by the order check at a prefix (counted in
// OrderPruned, beside the assignments its check discards at a leaf), the rest
// as assignments (Pruned).
func TestSearchIncumbentPrunesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full m-shape sweep is slow in -short mode")
	}
	p := shape(t, "m-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.OrderPruned == 0 {
		t.Fatal("no subtree or assignment discarded by the order check against the incumbent")
	}
	if discarded := int64(st.Pruned) + st.OrderPruned; discarded <= 100*int64(st.Solved) {
		t.Fatalf("pruning barely bites: %d pruned and %d order-pruned, %d solved", st.Pruned, st.OrderPruned, st.Solved)
	}
	if st.SolverNodes == 0 {
		t.Fatal("Stats.SolverNodes not populated")
	}
	checkFull(t, res, 0)
}
