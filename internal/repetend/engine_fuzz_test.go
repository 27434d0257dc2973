package repetend

import (
	"math/rand"
	"testing"

	"tessel/internal/sched"
)

// FuzzPeriodProbe holds single probes of the period engine to the dense
// Bellman-Ford reference: an input seeds a placement (small, chain-heavy or
// large, from this package's generators), an assignment, the start vector the
// per-device orders come from (dependency-consistent or arbitrary) and a
// period, and probeOrders and relaxedFeasible must agree with
// refFeasibleEdges on the verdict and, when feasible, on the fixpoint. The
// engine comes from the package pool, so whatever state the last input left
// in it is under test too.
//
//	go test -run '^$' -fuzz '^FuzzPeriodProbe$' -fuzztime 20s ./internal/repetend/
func FuzzPeriodProbe(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed), seed%2 == 0, uint16(seed*9000))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, consistent bool, at uint16) {
		rng := rand.New(rand.NewSource(seed))
		var p *sched.Placement
		var a Assignment
		switch shape % 3 {
		case 0:
			p = randomPlacement(rng)
			a = randomAssignment(rng, p)
		case 1:
			p = chainPlacement(rng)
			a = randomAssignmentMax(rng, p, 6)
		default:
			p = largePlacement(rng)
			a = randomAssignmentMax(rng, p, 1+rng.Intn(6))
		}
		starts := randomStarts(rng, p.K())
		if consistent {
			starts = randomTopoStarts(rng, p, a)
		}
		entry := EntryMemory(p, a, 0)
		ref := newRefInstance(p, a, entry, sched.Unbounded)
		e := periodEngines.Get().(*periodEngine)
		defer periodEngines.Put(e)
		e.bind(p, a, entry, sched.Unbounded)
		e.setOrdersFromStarts(starts)
		// Periods from 1 to one past the sequential ceiling, which every
		// acyclic order system admits.
		period := 1 + int(at)%(e.hiSum+1)

		dist := make([]int, p.K())
		got, want := e.probeOrders(period), refFeasibleEdges(ref.refBuildEdges(ordersFromStarts(p, starts)), dist, period)
		if got != want {
			t.Fatalf("probeOrders(%d) = %v, reference %v (assign %v starts %v)", period, got, want, a, starts)
		}
		if got && !equalInts(e.feasDist[:e.k], dist) {
			t.Fatalf("probeOrders(%d) fixpoint %v, reference %v", period, e.feasDist[:e.k], dist)
		}

		got, want = e.relaxedFeasible(period), refFeasibleEdges(ref.refRelaxedEdges(), dist, period)
		if got != want {
			t.Fatalf("relaxedFeasible(%d) = %v, reference %v (assign %v)", period, got, want, a)
		}
		if got && !equalInts(e.dist[:e.k], dist) {
			t.Fatalf("relaxedFeasible(%d) fixpoint %v, reference %v", period, e.dist[:e.k], dist)
		}
	})
}
