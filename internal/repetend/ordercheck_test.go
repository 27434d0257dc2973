package repetend

// The order check against brute force: for small instances every combination
// of per-device orders is installed in the engine and evaluated by minPeriod —
// the code the check is meant to pre-empt, and none of the check's own.

import (
	"context"
	"math/rand"
	"testing"

	"tessel/internal/sched"
)

// installOrders puts the given per-device orders (stage ids in execution
// order, one slice per device) into the engine's order buffers, as
// setOrdersFromStarts does for the orders a start vector induces.
func installOrders(e *periodEngine, orders [][]int) {
	for x := range e.ordPos {
		e.ordPos[x] = -1
	}
	for d, ord := range orders {
		base, m := e.devHead[d], e.entry[d]
		for x, id := range ord {
			e.order[base+x] = id
			e.ordPos[d*e.k+id] = x
			m += e.mems[id]
			e.prefMem[base+x] = m
		}
	}
}

// bestOrderPeriod returns the smallest period ≤ ceil that any combination of
// per-device orders reaches (ceil+1 when none does), by enumerating the
// product of all permutations of every device's stages.
func bestOrderPeriod(e *periodEngine, ceil int) int {
	orders := make([][]int, e.nd)
	for d := range orders {
		orders[d] = append([]int(nil), e.devStages[e.devHead[d]:e.devHead[d+1]]...)
	}
	best := ceil + 1
	var perDevice func(d int)
	var permute func(d, from int)
	perDevice = func(d int) {
		if d == e.nd {
			installOrders(e, orders)
			if p, st := e.minPeriod(best - 1); st == periodOK {
				best = p
			}
			return
		}
		permute(d, 0)
	}
	permute = func(d, from int) {
		ord := orders[d]
		if from >= len(ord)-1 {
			perDevice(d + 1)
			return
		}
		for x := from; x < len(ord) && best > e.lower; x++ {
			ord[from], ord[x] = ord[x], ord[from]
			permute(d, from+1)
			ord[from], ord[x] = ord[x], ord[from]
		}
	}
	perDevice(0)
	return best
}

// orderCombinations is the size of the product bestOrderPeriod walks.
func orderCombinations(e *periodEngine, limit int) int {
	n := 1
	for d := 0; d < e.nd; d++ {
		for f := 2; f <= e.devHead[d+1]-e.devHead[d]; f++ {
			if n *= f; n > limit {
				return n
			}
		}
	}
	return n
}

// witnessStarts reads the least solution off the matrix that decided the last
// "feasible" verdict: s_i = the longest path into i from anywhere.
func witnessStarts(e *periodEngine) []int {
	k := e.k
	D := e.ordMat[e.ordLeaf*k*k : (e.ordLeaf+1)*k*k]
	starts := make([]int, k)
	for i := range starts {
		for j := 0; j < k; j++ {
			if orderPath(D[j*k+i]) {
				starts[i] = max(starts[i], D[j*k+i])
			}
		}
	}
	return starts
}

// bruteForceVerdicts counts what checkAgainstBruteForce saw on one instance:
// infeasible and feasible verdicts at lower … lower+2, and infeasible ones
// above lower+2 — at best − 1 when the best of all orders lies there.
type bruteForceVerdicts struct{ infeasible, feasible, infeasibleHigh int }

// checkAgainstBruteForce compares orderCheck(P) with the enumeration on the
// bound engine for P = lower, lower+1, lower+2 and at best − 1 and best, where
// best is the least period of all orders: the check is exact at any period,
// far above the lower bound too.
func checkAgainstBruteForce(t *testing.T, e *periodEngine, what string) (v bruteForceVerdicts) {
	t.Helper()
	best := bestOrderPeriod(e, e.hiSum)
	if best > e.hiSum {
		t.Fatalf("%s: no order within the sequential ceiling %d", what, e.hiSum)
	}
	// Below the lower bound Solve prunes before the check runs.
	periods := []int{e.lower, e.lower + 1, e.lower + 2}
	for _, P := range []int{best - 1, best} {
		if P > e.lower+2 {
			periods = append(periods, P)
		}
	}
	for _, P := range periods {
		e.ordNodes = 0
		got := e.orderCheck(P)
		if got == orderUndecided {
			t.Fatalf("%s: check at period %d undecided after %d nodes", what, P, e.ordNodes)
		}
		if want := best <= P; (got == orderFeasible) != want {
			t.Fatalf("%s: check at period %d says feasible=%v, the best of all orders is %d (lower bound %d)", what, P, got == orderFeasible, best, e.lower)
		}
		switch {
		case got == orderInfeasible && P > e.lower+2:
			v.infeasibleHigh++
		case got == orderInfeasible:
			v.infeasible++
		case got == orderFeasible:
			if P <= e.lower+2 {
				v.feasible++
			}
			e.setOrdersFromStarts(witnessStarts(e))
			if p, st := e.minPeriod(P); st != periodOK || p > P {
				t.Fatalf("%s: the check's witness order at period %d evaluates to period %d, status %d", what, P, p, st)
			}
		}
	}
	return v
}

// TestOrderCheckMatchesBruteForce: check(P) ⇔ some combination of per-device
// orders has period ≤ P, on every catalog placement of at most nine stages and
// on random placements, for a sample of valid assignments each, at the lower
// bound and the two periods above it and on both sides of the best period of
// all orders; and whenever the check says feasible, the order its matrix
// spells out is one.
func TestOrderCheckMatchesBruteForce(t *testing.T) {
	const maxCombinations = 6000
	rng := rand.New(rand.NewSource(17))
	e := &periodEngine{}
	instances, skipped, verdicts, beyondRelaxation, branched := 0, 0, bruteForceVerdicts{}, 0, 0
	run := func(p *sched.Placement, a Assignment, what string) {
		e.bind(p, a, EntryMemory(p, a, 0), sched.Unbounded)
		if orderCombinations(e, maxCombinations) > maxCombinations {
			skipped++
			return
		}
		instances++
		v := checkAgainstBruteForce(t, e, what)
		verdicts.infeasible += v.infeasible
		verdicts.feasible += v.feasible
		verdicts.infeasibleHigh += v.infeasibleHigh
		if e.ordNodes > 0 { // of the last period checked
			branched++
		}
		// Infeasible verdicts at lower … lower+2 the relaxation could not
		// have reached.
		for P := e.lower; P < e.lower+v.infeasible; P++ {
			if e.relaxedFeasible(P) {
				beyondRelaxation++
			}
		}
	}
	for _, c := range Catalog {
		p := c.Placement(t)
		if p.K() > 9 {
			continue
		}
		for nr := 1; nr <= 3; nr++ {
			n := 0
			if _, err := Enumerate(p, nr, func(a Assignment) bool {
				run(p, a, c.Name)
				n++
				return n < 40
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		p := randomPlacement(rng)
		if i%5 == 0 {
			p = chainPlacement(rng)
		}
		if p.K() > 9 {
			continue
		}
		for j := 0; j < 4; j++ {
			run(p, randomAssignmentMax(rng, p, 1+j), "random")
		}
	}
	t.Logf("%d instances × 3 periods: %d infeasible (%d of them past the relaxation), %d feasible verdicts; %d infeasible above lower+2; %d instances branched; %d instances skipped (more than %d order combinations)",
		instances, verdicts.infeasible, beyondRelaxation, verdicts.feasible, verdicts.infeasibleHigh, branched, skipped, maxCombinations)
	if instances < 2000 || beyondRelaxation < 150 || verdicts.feasible < 1000 || verdicts.infeasibleHigh < 50 || branched < 50 {
		t.Fatalf("the sample no longer exercises both verdicts: %d instances, %d infeasible past the relaxation, %d feasible, %d infeasible above lower+2", instances, beyondRelaxation, verdicts.feasible, verdicts.infeasibleHigh)
	}
}

// FuzzOrderCheck holds the check to brute force at any bound Solve runs it
// against: an input seeds a placement of at most eight stages, a valid
// assignment and a period anywhere from the lower bound to the sequential
// ceiling, and the verdict must be "feasible" exactly when some combination
// of per-device orders reaches the period — never "undecided" — with the
// order the deciding matrix spells out as the witness. The engine comes from
// the package pool, so whatever state the last input left in it is under test
// too.
//
//	go test -run '^$' -fuzz '^FuzzOrderCheck$' -fuzztime 20s ./internal/repetend/
func FuzzOrderCheck(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed), uint16(seed*9000))
	}
	f.Fuzz(func(t *testing.T, seed int64, maxIndex uint8, at uint16) {
		rng := rand.New(rand.NewSource(seed))
		p := randomPlacement(rng)
		a := randomAssignmentMax(rng, p, int(maxIndex%6))
		e := periodEngines.Get().(*periodEngine)
		defer periodEngines.Put(e)
		e.bind(p, a, EntryMemory(p, a, 0), sched.Unbounded)
		if orderCombinations(e, 6000) > 6000 {
			return // seven or eight stages on one device: too many orders to walk
		}
		P := e.lower + int(at)%(e.hiSum-e.lower+1)
		best := bestOrderPeriod(e, e.hiSum)
		e.ordNodes = 0
		got := e.orderCheck(P)
		if got == orderUndecided {
			t.Fatalf("check at period %d undecided after %d nodes (assign %v)", P, e.ordNodes, a)
		}
		if want := best <= P; (got == orderFeasible) != want {
			t.Fatalf("check at period %d says feasible=%v, the best of all orders is %d (lower bound %d, assign %v)", P, got == orderFeasible, best, e.lower, a)
		}
		if got == orderFeasible {
			e.setOrdersFromStarts(witnessStarts(e))
			if q, st := e.minPeriod(P); st != periodOK || q > P {
				t.Fatalf("the check's witness order at period %d evaluates to period %d, status %d (assign %v)", P, q, st, a)
			}
		}
	})
}

// TestOrderCheckSteadyStateAllocs: a check on a warmed engine allocates
// nothing, branching included.
func TestOrderCheckSteadyStateAllocs(t *testing.T) {
	p := Catalog[0].Placement(t) // m4
	e := &periodEngine{}
	var a Assignment
	for nr := 1; nr <= 6 && a == nil; nr++ {
		if _, err := Enumerate(p, nr, func(c Assignment) bool {
			e.bind(p, c, EntryMemory(p, c, 0), sched.Unbounded)
			if e.relaxedFeasible(e.lower) && e.orderCheck(e.lower) == orderInfeasible && e.ordNodes >= 8 {
				a = c
			}
			return a == nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if a == nil {
		t.Fatal("no m4 assignment whose check branches; the test needs another placement")
	}
	entry := EntryMemory(p, a, 0)
	if n := testing.AllocsPerRun(50, func() {
		e.bind(p, a, entry, sched.Unbounded)
		e.orderCheck(e.lower)
	}); n != 0 {
		t.Fatalf("%v allocations per check in steady state", n)
	}

	// A check at a prefix — the push into a level at the bottom of the walk
	// resumed from a handed-out subtree — branches on the filter's own stack
	// and allocates nothing either.
	var slot Subtree
	f := branchingCutSubtree(t, p, &slot)
	defer f.Close()
	f.Walk(context.Background(), &slot, func(Assignment) bool { return true })
	pos := slot.depth
	i := f.order[pos]
	copy(f.assign, slot.assign)
	copy(f.e.ordMat[pos*f.e.k*f.e.k:], slot.mat)
	v := slot.nr - 1
	for _, pr := range f.preds[i] {
		v = min(v, f.assign[pr])
	}
	for ; v >= 0; v-- {
		f.assign[i] = v
		f.e.ordNodes = 0
		if !f.push(pos, i, v) && f.e.ordNodes > 0 {
			break
		}
	}
	if v < 0 {
		t.Fatal("no push below the m4 subtree cut by branching")
	}
	if n := testing.AllocsPerRun(50, func() { f.push(pos, i, v) }); n != 0 {
		t.Fatalf("%v allocations per check at a prefix in steady state", n)
	}
}
