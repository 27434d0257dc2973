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

// checkAgainstBruteForce compares orderCheck(P) with the enumeration for
// P = lower, lower+1, lower+2 on the bound engine and returns how many of the
// three it found feasible.
func checkAgainstBruteForce(t *testing.T, e *periodEngine, what string) (feasible int) {
	t.Helper()
	best := bestOrderPeriod(e, e.lower+2)
	for P := e.lower; P <= e.lower+2; P++ {
		e.ordNodes = 0
		got := e.orderCheck(P)
		if got == orderUndecided {
			t.Fatalf("%s: check at period %d undecided after %d nodes", what, P, e.ordNodes)
		}
		if want := best <= P; (got == orderFeasible) != want {
			t.Fatalf("%s: check at period %d says feasible=%v, the best of all orders is %d (lower bound %d)", what, P, got == orderFeasible, best, e.lower)
		}
		if got == orderFeasible {
			feasible++
			e.setOrdersFromStarts(witnessStarts(e))
			if p, st := e.minPeriod(P); st != periodOK || p > P {
				t.Fatalf("%s: the check's witness order at period %d evaluates to period %d, status %d", what, P, p, st)
			}
		}
	}
	return feasible
}

// TestOrderCheckMatchesBruteForce: check(P) ⇔ some combination of per-device
// orders has period ≤ P, on every catalog placement of at most nine stages and
// on random placements, for a sample of valid assignments each; and whenever
// the check says feasible, the order its matrix spells out is one.
func TestOrderCheckMatchesBruteForce(t *testing.T) {
	const maxCombinations = 6000
	rng := rand.New(rand.NewSource(17))
	e := &periodEngine{}
	instances, skipped, verdicts, beyondRelaxation, branched := 0, 0, [2]int{}, 0, 0
	run := func(p *sched.Placement, a Assignment, what string) {
		e.bind(p, a, EntryMemory(p, a, 0), sched.Unbounded)
		if orderCombinations(e, maxCombinations) > maxCombinations {
			skipped++
			return
		}
		instances++
		f := checkAgainstBruteForce(t, e, what)
		verdicts[0] += 3 - f
		verdicts[1] += f
		if e.ordNodes > 0 { // of the last period checked
			branched++
		}
		// Infeasible verdicts the relaxation could not have reached.
		for P := e.lower; P < e.lower+3-f; P++ {
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
	t.Logf("%d instances × 3 periods: %d infeasible (%d of them past the relaxation), %d feasible verdicts, %d instances branched; %d instances skipped (more than %d order combinations)",
		instances, verdicts[0], beyondRelaxation, verdicts[1], branched, skipped, maxCombinations)
	if instances < 2000 || beyondRelaxation < 150 || verdicts[1] < 1000 || branched < 50 {
		t.Fatalf("the sample no longer exercises both verdicts: %d instances, %d infeasible past the relaxation, %d feasible", instances, beyondRelaxation, verdicts[1])
	}
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
