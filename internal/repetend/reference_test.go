package repetend

// The naive reference implementation of the period machinery: dense edge
// lists rebuilt per call and O(V·E) Bellman-Ford relaxation from zero —
// the pre-engine production code, retained verbatim (modulo renaming) as
// the oracle the randomized property tests in engine_test.go check the
// allocation-free periodEngine against. Everything here may allocate
// freely; it exists for byte-identical cross-checking, not speed.

import (
	"context"
	"sort"

	"tessel/internal/sched"
)

// ordersFromStarts derives the per-device execution orders induced by a
// start-time vector: each device's stages sorted by start time, ties
// broken by stage id. Same-device starts are distinct for any valid
// instance schedule (exclusive execution), but the explicit tie-break
// keeps the orders a pure function of the start vector for arbitrary
// inputs — sort.Slice is unstable, so without it equal starts could order
// either way from run to run (the latent nondeterminism seed of the
// pre-engine code). The production path is the engine's allocation-free
// setOrdersFromStarts, which mirrors these exact semantics; the tests
// use this as its oracle.
func ordersFromStarts(p *sched.Placement, starts []int) [][]int {
	orders := make([][]int, p.NumDevices)
	for d := 0; d < p.NumDevices; d++ {
		ids := p.DeviceStages(sched.DeviceID(d))
		sort.Slice(ids, func(x, y int) bool {
			if starts[ids[x]] != starts[ids[y]] {
				return starts[ids[x]] < starts[ids[y]]
			}
			return ids[x] < ids[y]
		})
		orders[d] = ids
	}
	return orders
}

// refEdge is a difference constraint s_to ≥ s_from + base − coeff·P.
type refEdge struct {
	from, to, base, coeff int
}

// refInstance carries the dependency structure of one repetend instance.
type refInstance struct {
	p     *sched.Placement
	a     Assignment
	entry []int
	mem   int
	// intra edges (same micro) and cross edges with lag ≥ 1.
	intra [][2]int // (i, j): s_j ≥ s_i + t_i
	cross []refCrossEdge
	reach [][]bool // transitive closure over intra edges
}

type refCrossEdge struct {
	from, to, lag int
}

func newRefInstance(p *sched.Placement, a Assignment, entry []int, mem int) *refInstance {
	in := &refInstance{p: p, a: a, entry: entry, mem: mem}
	k := p.K()
	in.reach = make([][]bool, k)
	for i := range in.reach {
		in.reach[i] = make([]bool, k)
	}
	for i, succs := range p.Deps {
		for _, j := range succs {
			switch lag := a[i] - a[j]; {
			case lag == 0:
				in.intra = append(in.intra, [2]int{i, j})
				in.reach[i][j] = true
			case lag > 0:
				in.cross = append(in.cross, refCrossEdge{from: i, to: j, lag: lag})
			}
		}
	}
	for m := 0; m < k; m++ {
		for i := 0; i < k; i++ {
			if !in.reach[i][m] {
				continue
			}
			for j := 0; j < k; j++ {
				if in.reach[m][j] {
					in.reach[i][j] = true
				}
			}
		}
	}
	return in
}

// refWindowEdges builds the order-independent device-window constraints.
func (in *refInstance) refWindowEdges() []refEdge {
	k := in.p.K()
	seen := make([][]bool, k)
	for i := range seen {
		seen[i] = make([]bool, k)
	}
	var edges []refEdge
	for d := 0; d < in.p.NumDevices; d++ {
		ids := in.p.DeviceStages(sched.DeviceID(d))
		for _, v := range ids {
			for _, u := range ids {
				if u == v || seen[v][u] {
					continue
				}
				seen[v][u] = true
				edges = append(edges, refEdge{from: v, to: u, base: in.p.Stages[v].Time, coeff: 1})
			}
		}
	}
	return edges
}

// refBuildEdges assembles the difference-constraint system for the given
// per-device orders; period-dependent weights carry a coefficient.
func (in *refInstance) refBuildEdges(orders [][]int) []refEdge {
	edges := make([]refEdge, 0, len(in.intra)+len(in.cross)+2*in.p.K())
	for _, e := range in.intra {
		edges = append(edges, refEdge{e[0], e[1], in.p.Stages[e[0]].Time, 0})
	}
	for _, o := range orders {
		for x := 0; x+1 < len(o); x++ {
			edges = append(edges, refEdge{o[x], o[x+1], in.p.Stages[o[x]].Time, 0})
		}
		if len(o) > 1 {
			first, last := o[0], o[len(o)-1]
			edges = append(edges, refEdge{last, first, in.p.Stages[last].Time, 1})
		}
	}
	for _, c := range in.cross {
		edges = append(edges, refEdge{c.from, c.to, in.p.Stages[c.from].Time, c.lag})
	}
	return edges
}

// refFeasibleEdges runs dense Bellman-Ford on the difference constraints at
// period P and fills dist with the minimal non-negative start times; it
// reports ok = false on a positive cycle (infeasible period).
func refFeasibleEdges(edges []refEdge, dist []int, period int) bool {
	for i := range dist {
		dist[i] = 0
	}
	for iter := 0; iter <= len(dist); iter++ {
		changed := false
		for _, e := range edges {
			if d := dist[e.from] + e.base - e.coeff*period; d > dist[e.to] {
				dist[e.to] = d
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// refMemoryOK checks the per-device prefix memory of the given orders
// against the instance entry memory.
func (in *refInstance) refMemoryOK(orders [][]int) bool {
	if in.mem == sched.Unbounded {
		return true
	}
	for d, o := range orders {
		m := in.entry[d]
		for _, i := range o {
			m += in.p.Stages[i].Mem
			if m > in.mem {
				return false
			}
		}
	}
	return true
}

// refRelaxedFeasible is the order-independent relaxation check.
func (in *refInstance) refRelaxedFeasible(period int) bool {
	window := in.refWindowEdges()
	edges := make([]refEdge, 0, len(in.intra)+len(in.cross)+len(window))
	for _, e := range in.intra {
		edges = append(edges, refEdge{e[0], e[1], in.p.Stages[e[0]].Time, 0})
	}
	for _, c := range in.cross {
		edges = append(edges, refEdge{c.from, c.to, in.p.Stages[c.from].Time, c.lag})
	}
	edges = append(edges, window...)
	dist := make([]int, in.p.K())
	return refFeasibleEdges(edges, dist, period)
}

// refWorkLowerBound is max_d E_d's floor.
func (in *refInstance) refWorkLowerBound() int {
	lo := 1
	for d := 0; d < in.p.NumDevices; d++ {
		if w := in.p.DeviceWork(sched.DeviceID(d)); w > lo {
			lo = w
		}
	}
	return lo
}

// refMinPeriod binary-searches the smallest feasible period for fixed
// orders with dense Bellman-Ford probes from zero — the oracle for the
// engine's minPeriod.
func (in *refInstance) refMinPeriod(orders [][]int, bound int) (int, []int, periodStatus) {
	lo := in.refWorkLowerBound()
	if bound > 0 && lo > bound {
		return 0, nil, periodPruned
	}
	hi := 0
	for i := range in.p.Stages {
		hi += in.p.Stages[i].Time
	}
	if hi < lo {
		hi = lo
	}
	edges := in.refBuildEdges(orders)
	dist := make([]int, in.p.K())
	if refFeasibleEdges(edges, dist, lo) {
		starts := append([]int(nil), dist...)
		normalize(starts)
		return lo, starts, periodOK
	}
	if bound > 0 && bound < hi {
		if !refFeasibleEdges(edges, dist, bound) {
			return 0, nil, periodPruned
		}
		hi = bound
	} else if !refFeasibleEdges(edges, dist, hi) {
		return 0, nil, periodInfeasible
	}
	lo++
	for lo < hi {
		mid := (lo + hi) / 2
		if refFeasibleEdges(edges, dist, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if !refFeasibleEdges(edges, dist, lo) {
		return 0, nil, periodInfeasible
	}
	starts := append([]int(nil), dist...)
	normalize(starts)
	return lo, starts, periodOK
}

// refLocalSearch improves the period by adjacent swaps with cloned order
// vectors, full memory rescans, and from-scratch period searches — the
// oracle for the engine's in-place swap+undo local search.
func (in *refInstance) refLocalSearch(ctx context.Context, orders [][]int, period int, starts []int) (int, []int, [][]int) {
	maxPasses := in.p.K() * in.p.K()
	lower := in.refWorkLowerBound()
	for pass := 0; pass < maxPasses && period > lower && ctx.Err() == nil; pass++ {
		improved := false
		for d := range orders {
			o := orders[d]
			for x := 0; x+1 < len(o); x++ {
				u, v := o[x], o[x+1]
				if in.reach[u][v] {
					continue // dependency-forced order
				}
				cand := refSwapEverywhere(orders, u, v)
				if cand == nil || !in.refMemoryOK(cand) {
					continue
				}
				if p2, s2, st := in.refMinPeriod(cand, period-1); st == periodOK {
					orders, period, starts = cand, p2, s2
					improved = true
					if period <= lower {
						return period, starts, orders
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	return period, starts, orders
}

// refSwapEverywhere swaps u and v in every device order where both appear;
// it returns nil when they appear non-adjacently somewhere.
func refSwapEverywhere(orders [][]int, u, v int) [][]int {
	out := make([][]int, len(orders))
	for d, o := range orders {
		iu, iv := -1, -1
		for x, id := range o {
			if id == u {
				iu = x
			}
			if id == v {
				iv = x
			}
		}
		cp := append([]int(nil), o...)
		if iu >= 0 && iv >= 0 {
			if iv-iu != 1 && iu-iv != 1 {
				return nil
			}
			cp[iu], cp[iv] = cp[iv], cp[iu]
		}
		out[d] = cp
	}
	return out
}
