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
// whether the walk went through the filter or not. A round whose root already
// holds a positive cycle is walked no further and costs no check; all its
// leaves are held to the same proof.
func TestPrefixFilterCutsOnlyWhatSolvePrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ctx := context.Background()
	rounds, deadRoots, leaves, cut, cutByPairs, winners := 0, 0, 0, 0, 0, 0
	run := func(p *sched.Placement, what string) {
		lower := p.LowerBound()
		for nr := 1; nr <= 3; nr++ {
			for bound := lower; bound <= lower+2; bound++ {
				kept, eff := filteredLeaves(t, p, nr, bound)
				if eff.PrefixCuts > eff.PrefixChecks || (eff.PrefixChecks == 0 && len(kept) > 0) {
					t.Fatalf("%s N_R %d bound %d: %d checks, %d cuts, %d leaves", what, nr, bound, eff.PrefixChecks, eff.PrefixCuts, len(kept))
				}
				if eff.PrefixChecks == 0 {
					deadRoots++
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
	t.Logf("%d rounds (%d of them dead at the root), %d leaves, %d of them cut (%d past the relaxation, by forced pairs), %d rounds with a solved leaf",
		rounds, deadRoots, leaves, cut, cutByPairs, winners)
	if rounds < 4000 || deadRoots < 100 || cut < 5000 || cutByPairs < 500 || winners < 3000 {
		t.Fatalf("the sample has gone soft: %d rounds, %d dead at the root, %d leaves cut, %d by forced pairs, %d rounds with a solved leaf", rounds, deadRoots, cut, cutByPairs, winners)
	}
}

// TestPrefixFilterLeafIdentity: on every catalog placement of at most 20
// stages, rounds 1–5 at the lower bound, the filter yields exactly the leaves
// that survive the relaxation and forced-pair propagation, in Enumerate's
// order. The reference is the unfiltered walk with one order check per leaf,
// its node cap 0 so that it decides by propagation alone. The telescoped
// dependency paths move cuts up the tree; they must not change which leaves
// survive, since at the last level every path is dominated by its edges.
func TestPrefixFilterLeafIdentity(t *testing.T) {
	SetOrderNodeLimit(t, 0)
	e := &periodEngine{}
	seen := map[string]bool{} // memory caps aside, some catalog entries share a placement
	rounds, leaves, survivors := 0, 0, 0
	for _, c := range Catalog {
		p := c.Placement(t)
		fp := sched.Fingerprint(p)
		if p.K() > 20 || seen[fp] {
			continue
		}
		seen[fp] = true
		bound := p.LowerBound()
		for nr := 1; nr <= 5; nr++ {
			got, _ := filteredLeaves(t, p, nr, bound)
			var want []Assignment
			if _, err := Enumerate(p, nr, func(a Assignment) bool {
				leaves++
				e.bind(p, a, EntryMemory(p, a, 0), sched.Unbounded)
				if e.orderCheck(bound) != orderInfeasible {
					want = append(want, a)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got, want, slices.Equal[Assignment]) {
				x := 0
				for x < min(len(got), len(want)) && slices.Equal(got[x], want[x]) {
					x++
				}
				t.Fatalf("%s N_R %d: the filter yields %d leaves, %d survive propagation; they part at leaf %d", c.Name, nr, len(got), len(want), x)
			}
			rounds++
			survivors += len(want)
		}
	}
	t.Logf("%d rounds, %d leaves, %d of them survive", rounds, leaves, survivors)
	if rounds < 75 || leaves < 400000 || survivors < 100000 {
		t.Fatalf("the sample has gone soft: %d rounds, %d leaves, %d survivors", rounds, leaves, survivors)
	}
}

// TestPrefixSplitWalkIsEnumerate: a walk split at the level above its last
// branchLevels — each subtree copied off with Set, as the sweep copies it into
// its ring, and walked once the split walk is over, on a second filter —
// yields Enumerate's leaves in Enumerate's order and spends what Enumerate
// spends, the order checks at the last levels included: on every catalog
// placement of at most 20 stages and on a three-stage one whose root is its
// one subtree, rounds 1–5 at the lower bound and, for the unfiltered walk, at
// bound 0 — the rounds of at most 5,000 leaves.
func TestPrefixSplitWalkIsEnumerate(t *testing.T) {
	const maxLeaves = 5000
	ctx := context.Background()
	// Three stages on two devices: f0 → f1 → b, f0 and b on device 0.
	small := &sched.Placement{Name: "three-stage", NumDevices: 2, Stages: []sched.Stage{
		{Name: "f0", Time: 2, Devices: []sched.DeviceID{0}},
		{Name: "f1", Time: 3, Devices: []sched.DeviceID{1}},
		{Name: "b", Time: 2, Devices: []sched.DeviceID{0}},
	}, Deps: [][]int{{1}, {2}, nil}}
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	ps := []*sched.Placement{small}
	seen := map[string]bool{} // memory caps aside, some catalog entries share a placement
	for _, c := range Catalog {
		if p := c.Placement(t); p.K() <= 20 && !seen[sched.Fingerprint(p)] {
			seen[sched.Fingerprint(p)] = true
			ps = append(ps, p)
		}
	}
	if ps[0].K() > branchLevels {
		t.Fatalf("the small placement has %d stages", ps[0].K())
	}
	subtrees, checks := 0, int64(0)
	for _, p := range ps {
		split, err := NewPrefixFilter(p)
		if err != nil {
			t.Fatal(err)
		}
		walk, err := NewPrefixFilter(p)
		if err != nil {
			t.Fatal(err)
		}
		for nr := 1; nr <= 5; nr++ {
			for _, bound := range []int{p.LowerBound(), 0} {
				var want []Assignment
				if !split.Enumerate(ctx, nr, bound, func(a Assignment) bool {
					want = append(want, a)
					return len(want) <= maxLeaves
				}) {
					continue // too many leaves to hold
				}
				wantEff := split.Effort()
				var subs []Subtree
				split.Split(ctx, nr, bound, func(st *Subtree) bool {
					if st.depth != max(p.K()-branchLevels, 0) || (bound > 0) != (len(st.mat) > 0) {
						t.Fatalf("%s N_R %d bound %d: a subtree at level %d with %d matrix entries", p.Name, nr, bound, st.depth, len(st.mat))
					}
					subs = append(subs, Subtree{})
					subs[len(subs)-1].Set(st)
					return true
				})
				eff := split.Effort()
				var got []Assignment
				for x := range subs {
					walk.Walk(ctx, &subs[x], func(a Assignment) bool {
						got = append(got, a)
						return true
					})
					eff.Add(walk.Effort())
				}
				if !slices.EqualFunc(got, want, slices.Equal[Assignment]) || eff != wantEff {
					t.Fatalf("%s N_R %d bound %d: %d subtrees walked yield %d leaves for %+v; Enumerate yields %d for %+v", p.Name, nr, bound, len(subs), len(got), eff, len(want), wantEff)
				}
				subtrees += len(subs)
				checks += eff.OrderChecks
			}
		}
		split.Close()
		walk.Close()
	}
	t.Logf("%d subtrees, %d order checks at prefixes", subtrees, checks)
	if subtrees < 10000 || checks < 10000 {
		t.Fatalf("the sample has gone soft: %d subtrees, %d checks", subtrees, checks)
	}
}

// TestPrefixFilterShallowRoundsDieAtTheRoot: a round too shallow for the
// pipeline — N_R periods cannot cover the dependency path between two blocks
// of some device — is a positive cycle at level 0 once the paths enter it
// telescoped, so it costs no push and yields nothing: at the lower bound,
// rounds 1–5 of v6, 1–3 of x8i, 1–4 of nn6i and 1–3 of m8i. The round after
// is walked.
func TestPrefixFilterShallowRoundsDieAtTheRoot(t *testing.T) {
	for _, c := range []struct {
		name    string
		shallow int
	}{{"v6", 5}, {"x8i", 3}, {"nn6i", 4}, {"m8i", 3}} {
		p := Catalog[slices.IndexFunc(Catalog, func(s CatalogShape) bool { return s.Name == c.name })].Placement(t)
		for nr := 1; nr <= c.shallow+1; nr++ {
			leaves, eff := filteredLeaves(t, p, nr, p.LowerBound())
			if dead := eff.PrefixChecks == 0; dead != (nr <= c.shallow) || (dead && len(leaves) > 0) {
				t.Fatalf("%s N_R %d: %d pushes, %d cuts, %d leaves; rounds up to %d should die at the root", c.name, nr, eff.PrefixChecks, eff.PrefixCuts, len(leaves), c.shallow)
			}
		}
	}
}

// TestPrefixFilterSteadyStateAllocs: on a warmed filter neither a push —
// copy, raises, propagation — nor a whole round in which everything is cut
// allocates. The round is one whose root survives, so the cuts are made by
// pushes: round 6 of nn6i (rounds 1–4 die at the root).
func TestPrefixFilterSteadyStateAllocs(t *testing.T) {
	const nr = 6
	p := Catalog[8].Placement(t) // nn6i
	f, err := NewPrefixFilter(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, bound := context.Background(), p.LowerBound()
	none := func(a Assignment) bool {
		t.Errorf("round %d of nn6i has a leaf the filter lets through: %v", nr, a)
		return false
	}
	f.Enumerate(ctx, nr, bound, none)
	if f.eff.PrefixChecks < 500 || f.eff.PrefixCuts == 0 || !f.forced {
		t.Fatalf("round %d of nn6i at the lower bound: %+v, forced-pair propagation %v; the test needs another round", nr, f.eff, f.forced)
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

	// A subtree copied into a ring slot that has held one before, and a walk
	// resumed from it — checks branching at its last levels, every leaf cut —
	// allocate nothing either.
	var slot Subtree
	w := branchingCutSubtree(t, Catalog[0].Placement(t), &slot) // m4
	defer w.Close()
	src := slot
	src.assign, src.mat = slices.Clone(slot.assign), slices.Clone(slot.mat)
	if n := testing.AllocsPerRun(50, func() { slot.Set(&src) }); n != 0 {
		t.Fatalf("%v allocations per subtree copy in steady state", n)
	}
	if n := testing.AllocsPerRun(20, func() { w.Walk(ctx, &slot, none) }); n != 0 {
		t.Fatalf("%v allocations per resumed walk in steady state", n)
	}
}

// TestPrefixWalkPollsBeforeBranching: a check at the last levels branches for
// up to orderNodeCap nodes, so a walk polls its context before each one. A
// subtree of m4 whose walk runs at least four order checks runs at most one
// under a cancelled context (it ran them all when the poll came every 256
// pushes, counted per subtree).
func TestPrefixWalkPollsBeforeBranching(t *testing.T) {
	p := Catalog[0].Placement(t) // m4
	split, err := NewPrefixFilter(p)
	if err != nil {
		t.Fatal(err)
	}
	defer split.Close()
	w, err := NewPrefixFilter(p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var slot Subtree
	for nr := 1; nr <= 8 && slot.assign == nil; nr++ {
		split.Split(context.Background(), nr, p.LowerBound(), func(st *Subtree) bool {
			w.Walk(context.Background(), st, func(Assignment) bool { return true })
			if w.Effort().OrderChecks >= 4 {
				slot.Set(st)
			}
			return slot.assign == nil
		})
	}
	if slot.assign == nil {
		t.Fatal("m4: no subtree whose walk runs four order checks")
	}
	if w.Walk(cancelled, &slot, func(Assignment) bool { return true }) {
		t.Fatal("a walk under a cancelled context ran to completion")
	}
	if n := w.Effort().OrderChecks; n > 1 {
		t.Fatalf("a walk under a cancelled context ran %d order checks", n)
	}
}

// branchingCutSubtree copies into slot the first subtree of p, split at the
// lower bound, whose walk branches for at least eight nodes and cuts every
// leaf, and returns the filter that walked it.
func branchingCutSubtree(t *testing.T, p *sched.Placement, slot *Subtree) *PrefixFilter {
	t.Helper()
	split, err := NewPrefixFilter(p)
	if err != nil {
		t.Fatal(err)
	}
	defer split.Close()
	w, err := NewPrefixFilter(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, found := context.Background(), false
	for nr := 1; nr <= 8 && !found; nr++ {
		split.Split(ctx, nr, p.LowerBound(), func(st *Subtree) bool {
			leaves := 0
			w.Walk(ctx, st, func(Assignment) bool { leaves++; return true })
			if found = leaves == 0 && w.Effort().OrderNodes >= 8; found {
				slot.Set(st)
			}
			return !found
		})
	}
	if !found {
		t.Fatalf("%s: no subtree whose walk branches and cuts every leaf", p.Name)
	}
	return w
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
		PeriodUpperBound: p.LowerBound(), Effort: &eff, SolverNodes: 1,
	})
	if eff.SolverNodes == 0 {
		t.Fatalf("the assignment did not get past the relaxation: err %v, effort %+v", err, eff)
	}
	if eff.OrderChecks != 0 || eff.OrderNodes != 0 {
		t.Fatalf("order check ran on %d stages: %+v", p.K(), eff)
	}
	e := &periodEngine{}
	e.bind(p, a, EntryMemory(p, a, 0), sched.Unbounded)
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
