package repetend

// The prefix filter against the pipeline it runs in front of: on small
// instances every leaf of the enumeration tree is solved, whether the filter
// yields it or not, by Solve — none of the filter's own code.

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"tessel/internal/placement"
	"tessel/internal/sched"
)

// filteredLeaves walks round nr of p through a fresh filter at a fixed bound.
func filteredLeaves(t *testing.T, p *sched.Placement, nr, bound int) ([]Assignment, Effort) {
	t.Helper()
	f, err := NewPrefixFilter(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var leaves []Assignment
	f.Enumerate(context.Background(), nr, bound, func(a Assignment) bool {
		leaves = append(leaves, a)
		return true
	})
	return leaves, f.Effort()
}

// TestPrefixFilterCutsOnlyWhatSolvePrunes: exhaustively, on every catalog
// placement of at most eight stages, on the paper shapes that small with random
// block times and on random placements, for N_R ≤ 3 and bounds at and just
// above the device-work lower bound — the filter yields a
// subsequence of Enumerate's leaves; every leaf it leaves out comes back
// ErrPruned from Solve at that bound with no solver node and no swap spent;
// and the first leaf for which Solve returns a repetend is the same leaf
// whether the walk went through the filter or not.
func TestPrefixFilterCutsOnlyWhatSolvePrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ctx := context.Background()
	rounds, leaves, cut, cutByPairs, winners := 0, 0, 0, 0, 0
	run := func(p *sched.Placement, what string) {
		lower := p.LowerBound()
		for nr := 1; nr <= 3; nr++ {
			for bound := lower; bound <= lower+2; bound++ {
				kept, eff := filteredLeaves(t, p, nr, bound)
				if eff.PrefixChecks == 0 || eff.PrefixCuts > eff.PrefixChecks {
					t.Fatalf("%s N_R %d bound %d: %d checks, %d cuts", what, nr, bound, eff.PrefixChecks, eff.PrefixCuts)
				}
				rounds++
				next := 0 // kept[next] is the next leaf the filter let through
				first := [2]Assignment{}
				if _, err := Enumerate(p, nr, func(a Assignment) bool {
					leaves++
					yielded := next < len(kept) && slices.Equal(kept[next], a)
					if yielded {
						next++
					}
					var spent Effort
					r, err := Solve(ctx, p, a, SolveOptions{PeriodUpperBound: bound, Effort: &spent})
					if r != nil {
						if first[0] == nil {
							first[0] = a
						}
						if yielded && first[1] == nil {
							first[1] = a
						}
					}
					if yielded {
						return true
					}
					cut++
					if !errors.Is(err, ErrPruned) || spent.SolverNodes != 0 || spent.LocalSearchSwaps != 0 {
						t.Fatalf("%s N_R %d bound %d: the filter cut %v; Solve: repetend %v, err %v, effort %+v", what, nr, bound, a, r, err, spent)
					}
					if spent.OrderPruned == 1 {
						cutByPairs++
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if next != len(kept) {
					t.Fatalf("%s N_R %d bound %d: the filter yielded %v, which Enumerate does not, or not in that order", what, nr, bound, kept[next])
				}
				if !slices.Equal(first[0], first[1]) {
					t.Fatalf("%s N_R %d bound %d: first solved leaf %v unfiltered, %v filtered", what, nr, bound, first[0], first[1])
				}
				if first[0] != nil {
					winners++
				}
			}
		}
	}
	for _, c := range Catalog {
		if p := c.Placement(t); p.K() <= 8 {
			run(p, c.Name)
		}
	}
	builders := []func(placement.Config) (*sched.Placement, error){
		placement.VShape, placement.XShape, placement.MShape, placement.NNShape, placement.KShape,
	}
	for i := 0; i < 600; i++ {
		cfg := placement.Config{Devices: 2 + rng.Intn(3), Fwd: 1 + rng.Intn(3), Bwd: 1 + rng.Intn(4), EmbFwd: 1 + rng.Intn(3), EmbBwd: 1 + rng.Intn(4)}
		p, err := builders[i%len(builders)](cfg)
		if err != nil {
			continue // K-shape on an odd depth
		}
		if i%3 == 0 {
			p = placement.Inference(p)
		}
		if p.K() <= 8 {
			run(p, p.Name)
		}
	}
	for i := 0; i < 400; i++ {
		p := randomPlacement(rng)
		if i%4 == 0 {
			p = chainPlacement(rng)
		}
		if p.K() > 8 {
			continue
		}
		run(p, p.Name)
	}
	t.Logf("%d rounds, %d leaves, %d of them cut (%d past the relaxation, by forced pairs), %d rounds with a solved leaf", rounds, leaves, cut, cutByPairs, winners)
	if rounds < 4000 || cut < 5000 || cutByPairs < 500 || winners < 3000 {
		t.Fatalf("the sample has gone soft: %d rounds, %d leaves cut, %d by forced pairs, %d rounds with a solved leaf", rounds, cut, cutByPairs, winners)
	}
}

// TestPrefixFilterSteadyStateAllocs: on a warmed filter neither a push —
// copy, raises, propagation — nor a whole round in which everything is cut
// allocates.
func TestPrefixFilterSteadyStateAllocs(t *testing.T) {
	const nr = 5
	p := Catalog[4].Placement(t) // v6
	f, err := NewPrefixFilter(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, bound := context.Background(), p.LowerBound()
	none := func(a Assignment) bool {
		t.Errorf("round %d of v6 has a leaf the filter lets through: %v", nr, a)
		return false
	}
	f.Enumerate(ctx, nr, bound, none)
	if f.eff.PrefixCuts < 500 || !f.forced {
		t.Fatalf("round %d of v6 at the lower bound: %+v, forced-pair propagation %v; the test needs another round", nr, f.eff, f.forced)
	}
	i := f.order[0]
	f.assign[i] = nr - 1
	if !f.push(0, i, nr-1) {
		t.Fatal("the first stage at N_R − 1 is cut")
	}
	if n := testing.AllocsPerRun(50, func() { f.push(0, i, nr-1) }); n != 0 {
		t.Fatalf("%v allocations per push in steady state", n)
	}
	if n := testing.AllocsPerRun(20, func() { f.Enumerate(ctx, nr, bound, none) }); n != 0 {
		t.Fatalf("%v allocations per fully cut round in steady state", n)
	}
}

// TestOrderCheckStageCap: the stage count of a placement comes from the
// request body, and a matrix level is K² ints. On a 400-device V-shape (K =
// 800) an assignment that gets past the relaxation at the lower bound is
// neither order-checked nor filtered, and the engine that is asked anyway
// answers "undecided" without growing a matrix.
func TestOrderCheckStageCap(t *testing.T) {
	const d = 400
	p, err := placement.VShape(placement.Config{Devices: d})
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 2*d || p.K() <= orderStageCap {
		t.Fatalf("K = %d", p.K())
	}
	// 1F1B in steady state: every device runs its forward block, then its
	// backward block; each hop of the chain but the turn crosses one instance.
	a := make(Assignment, p.K())
	for i := 0; i < d; i++ {
		a[i], a[2*d-1-i] = 2*(d-1)-i, i
	}
	var eff Effort
	_, err = Solve(context.Background(), p, a, SolveOptions{
		PeriodUpperBound: p.LowerBound(), Effort: &eff, SolverNodes: 1, DisableLocalSearch: true,
	})
	if eff.SolverNodes == 0 {
		t.Fatalf("the assignment did not get past the relaxation: err %v, effort %+v", err, eff)
	}
	if eff.OrderChecks != 0 || eff.OrderNodes != 0 {
		t.Fatalf("order check ran on %d stages: %+v", p.K(), eff)
	}
	e := &periodEngine{}
	e.bind(p, a, EntryMemory(p, a), sched.Unbounded)
	if v := e.orderCheck(e.lower); v != orderUndecided || cap(e.ordMat) != 0 {
		t.Fatalf("order check on %d stages: verdict %d, matrix of %d ints", p.K(), v, cap(e.ordMat))
	}
	f, err := NewPrefixFilter(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	leaves := 0
	f.Enumerate(context.Background(), 2, p.LowerBound(), func(Assignment) bool {
		leaves++
		return leaves < 3
	})
	if got := f.Effort(); leaves != 3 || got.PrefixChecks != 0 || got.PrefixCuts != 0 {
		t.Fatalf("%d leaves, filter effort %+v on %d stages", leaves, got, p.K())
	}
}
