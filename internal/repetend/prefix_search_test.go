package repetend_test

// The prefix filter at sweep and search level: on the catalog every leaf under
// a cut is one the unchanged Solve discards before its instance solve, and a
// search returns the same bytes with the filter on and off.

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"tessel/internal/core"
	"tessel/internal/repetend"
	"tessel/internal/sched"
)

// TestPrefixFilterCatalogCutsAreProofs: for all 21 catalog placements, every
// round a search sweeps, at the bound of the first pass (the lower bound) and,
// where the search ends above it, at a looser one (the winner's period) — each
// leaf the filter does not yield gets no repetend from
// Solve at that bound, and no instance solve: ErrPruned, or ErrInfeasible
// where the memory cap rules it out at entry. That holds for the leaves the
// order check cuts by branching at a prefix in the walk's last levels too —
// those a walk at a zero node cap, which branches nowhere, does yield.
func TestPrefixFilterCatalogCutsAreProofs(t *testing.T) {
	ctx := context.Background()
	cut, cutLoose, cutByBranch := 0, 0, 0
	for _, c := range repetend.Catalog {
		p := c.Placement(t)
		res, err := core.Search(ctx, p, core.Options{Memory: c.Memory})
		if err != nil {
			t.Fatal(err)
		}
		bounds := []int{res.LowerBound}
		if res.Repetend.Period > res.LowerBound {
			bounds = append(bounds, res.Repetend.Period)
		}
		f, err := repetend.NewPrefixFilter(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range bounds {
			opts := repetend.SolveOptions{Memory: c.Memory, PeriodUpperBound: bound}
			for nr := 1; nr <= res.Stats.NRSwept; nr++ {
				kept, unbranched := walkLeaves(f, nr, bound, repetend.OrderNodeCap), walkLeaves(f, nr, bound, 0)
				if _, err := repetend.Enumerate(p, nr, func(a repetend.Assignment) bool {
					if len(kept) > 0 && slices.Equal(kept[0], a) {
						if len(unbranched) == 0 || !slices.Equal(unbranched[0], a) {
							t.Fatalf("%s N_R %d bound %d: the filter yields %v, a walk that does not branch cuts it", c.Name, nr, bound, a)
						}
						kept = kept[1:]
						unbranched = unbranched[1:]
						return true
					}
					if len(unbranched) > 0 && slices.Equal(unbranched[0], a) {
						unbranched = unbranched[1:]
						cutByBranch++
					}
					var eff repetend.Effort
					o := opts
					o.Effort = &eff
					r, err := repetend.Solve(ctx, p, a, o)
					if r != nil || !(errors.Is(err, repetend.ErrPruned) || errors.Is(err, repetend.ErrInfeasible)) || eff.SolverNodes != 0 || eff.LocalSearchSwaps != 0 {
						t.Fatalf("%s N_R %d bound %d: the filter cut %v; Solve: repetend %v, err %v, effort %+v", c.Name, nr, bound, a, r, err, eff)
					}
					if cut++; bound > res.LowerBound {
						cutLoose++
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(kept) != 0 {
					t.Fatalf("%s N_R %d bound %d: the filter yielded %v, which Enumerate does not, or not in that order", c.Name, nr, bound, kept[0])
				}
			}
		}
		f.Close()
	}
	t.Logf("%d leaves under cuts, %d of them at a bound above the lower bound, %d under cuts the check made by branching", cut, cutLoose, cutByBranch)
	if cut < 20000 || cutLoose < 100 || cutByBranch < 1000 {
		t.Fatalf("only %d leaves cut over the catalog, %d at a loose bound, %d by branching; the filter has stopped firing", cut, cutLoose, cutByBranch)
	}
}

// walkLeaves is what f yields of round nr at bound with the order check's
// node cap at limit.
func walkLeaves(f *repetend.PrefixFilter, nr, bound, limit int) []repetend.Assignment {
	var leaves []repetend.Assignment
	repetend.WithOrderNodeLimit(limit, func() {
		f.Enumerate(context.Background(), nr, bound, func(a repetend.Assignment) bool {
			leaves = append(leaves, a)
			return true
		})
	})
	return leaves
}

// TestPrefixBranchCutsAreProofs holds the walk at the lower bound, with the
// order check branching at the prefixes of its last levels, to Solve on the
// catalog and on the 240 seeded random placements of internal/core's
// TestGoldenSearchRandom, every round their searches sweep: each leaf the walk
// does not yield gets no repetend from Solve at the lower bound — ErrPruned, or
// ErrInfeasible under a memory cap. The walks run at the production node cap
// and at a cap of two nodes, under which most checks that branch stop
// "undecided": a walk that cut on "undecided" would cut leaves that reach the
// bound. The leaves that a walk deciding by propagation alone (node cap 0)
// yields and a branching one does not are the cuts made by branching; the
// sample must hold plenty of them.
func TestPrefixBranchCutsAreProofs(t *testing.T) {
	ctx := context.Background()
	type instance struct {
		p      *sched.Placement
		memory int
	}
	var instances []instance
	for _, c := range repetend.Catalog {
		instances = append(instances, instance{c.Placement(t), c.Memory})
	}
	for _, c := range []struct {
		seed   int64
		capped bool
	}{{17, false}, {33, true}} {
		rng := rand.New(rand.NewSource(c.seed))
		for range 120 {
			p, memory, err := randomShape(rng, c.capped)
			if err != nil {
				t.Fatal(err)
			}
			instances = append(instances, instance{p, memory})
		}
	}
	limits := []int{repetend.OrderNodeCap, 2}
	byBranch := make([]int, len(limits))
	for _, in := range instances {
		p := in.p
		res, err := core.Search(ctx, p, core.Options{Memory: in.memory, N: 8})
		if err != nil {
			continue
		}
		f, err := repetend.NewPrefixFilter(p)
		if err != nil {
			t.Fatal(err)
		}
		opts := repetend.SolveOptions{Memory: in.memory, PeriodUpperBound: res.LowerBound}
		for nr := 1; nr <= res.Stats.NRSwept; nr++ {
			unbranched := len(walkLeaves(f, nr, res.LowerBound, 0))
			for x, limit := range limits {
				kept := walkLeaves(f, nr, res.LowerBound, limit)
				byBranch[x] += unbranched - len(kept)
				if _, err := repetend.Enumerate(p, nr, func(a repetend.Assignment) bool {
					if len(kept) > 0 && slices.Equal(kept[0], a) {
						kept = kept[1:]
						return true
					}
					r, err := repetend.Solve(ctx, p, a, opts)
					if r != nil || !(errors.Is(err, repetend.ErrPruned) || errors.Is(err, repetend.ErrInfeasible)) {
						t.Fatalf("%s N_R %d cap %d: the walk cut %v; Solve: repetend %v, err %v", p.Name, nr, limit, a, r, err)
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(kept) != 0 {
					t.Fatalf("%s N_R %d cap %d: the walk yielded %v, which Enumerate does not, or not in that order", p.Name, nr, limit, kept[0])
				}
			}
		}
		f.Close()
	}
	t.Logf("%d placements; leaves cut by branching: %d at the production cap, %d at a cap of %d", len(instances), byBranch[0], byBranch[1], limits[1])
	if byBranch[0] < 5000 || byBranch[1] == 0 {
		t.Fatalf("the sample has gone soft: %d and %d leaves cut by branching", byBranch[0], byBranch[1])
	}
}

// TestPrefixFilterSearchDifferential: 300 seeded random placements searched
// with the filter on and off give the same repetend — period, N_R, assignment
// — and the same completed schedule, byte for byte; with the filter on, the
// order check also cuts by branching at the prefixes of the walk's last
// levels, and with it off it cuts nowhere. A third of them are
// memory-capped, so searches that the filtered first pass leaves empty-handed
// and the unfiltered second pass completes are covered; a placement no search
// completes must fail the same way both times.
func TestPrefixFilterSearchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	type outcome struct {
		res *core.Result
		err error
	}
	search := func(p *sched.Placement, memory, workers int) outcome {
		res, err := core.Search(context.Background(), p, core.Options{Memory: memory, N: 8, Workers: workers})
		return outcome{res, err}
	}
	type instance struct {
		p      *sched.Placement
		memory int
		on     outcome
	}
	var instances []instance
	// What the floor counts are leaves kept from the workers, not cuts: a
	// stronger filter cuts the same leaves higher up the tree, with fewer cuts.
	var cuts, fewerLeaves, fallbacks, fallbackFewer int64
	for len(instances) < 300 {
		p, memory, err := randomShape(rng, false)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, instance{p, memory, search(p, memory, 1+len(instances)%2)})
	}
	repetend.SetPrefixFilter(t, false)
	unsearchable := 0
	for i, in := range instances {
		off := search(in.p, in.memory, 1+i%2)
		if in.on.err != nil || off.err != nil {
			if in.on.err == nil || off.err == nil || in.on.err.Error() != off.err.Error() {
				t.Fatalf("%s: filter on: %v; filter off: %v", in.p.Name, in.on.err, off.err)
			}
			unsearchable++
			continue
		}
		if off.res.Stats.PrefixChecks != 0 {
			t.Fatalf("%s: %d prefix checks with the filter off", in.p.Name, off.res.Stats.PrefixChecks)
		}
		a, b := in.on.res.Repetend, off.res.Repetend
		if a.Period != b.Period || a.NR != b.NR || !slices.Equal(a.Assign, b.Assign) {
			t.Fatalf("%s: filter on: period %d N_R %d %v; off: period %d N_R %d %v", in.p.Name, a.Period, a.NR, a.Assign, b.Period, b.NR, b.Assign)
		}
		if fa, fb := sched.FingerprintSchedule(in.on.res.Full), sched.FingerprintSchedule(off.res.Full); fa != fb {
			t.Fatalf("%s: schedule fingerprint %s with the filter, %s without", in.p.Name, fa, fb)
		}
		on := in.on.res.Stats
		cuts += on.PrefixCuts
		fewer := int64(off.res.Stats.Assignments - on.Assignments)
		fewerLeaves += fewer
		if !on.EarlyExit {
			fallbacks++
			fallbackFewer += fewer
		}
	}
	t.Logf("%d placements, %d without a repetend either way; %d subtrees cut, %d fewer leaves reached a worker; %d searches went into the second pass, with %d fewer leaves between them",
		len(instances), unsearchable, cuts, fewerLeaves, fallbacks, fallbackFewer)
	if unsearchable > len(instances)/4 || cuts < 10000 || fewerLeaves < 50000 || fallbacks < 20 || fallbackFewer < 500 {
		t.Fatalf("the sample has gone soft: %d of %d placements unsearchable, %d cuts, %d fewer leaves, %d second-pass searches with %d fewer leaves",
			unsearchable, len(instances), cuts, fewerLeaves, fallbacks, fallbackFewer)
	}
}
