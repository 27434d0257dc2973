// The exact order-feasibility check: is there ANY choice of per-device
// execution orders under which the bound instance reaches period P?
//
// For a fixed P the question is a disjunctive feasibility problem. The
// constraints every order shares — the dependency edges and the device-window
// edges of the relaxation — are closed into a K×K longest-path matrix D
// (D[i][j] = the least s_j − s_i they force; a positive diagonal is the
// relaxation's own verdict). An order adds, for every pair {u, v} sharing a
// device, one of the arcs "u before v" (s_v ≥ s_u + t_u) or "v before u", and
// an arc u→v closes no positive cycle iff D[v][u] + t_u ≤ 0. So a pair with
// neither side left proves P out of reach of every order; a pair with one
// side left is forced — the arc goes in, the closure is updated in O(K²),
// and the scan repeats to a fixpoint; only pairs still open after that are
// branched on, tightest first, each depth on its own copy of the matrix. When
// no pair is open every pair is ordered inside a cycle-free system, whose
// least solution is a schedule at period P: the verdict is exact both ways.
//
// The window edges stay in force under every order (any two stages of one
// device lie within one period of each other), so together with the pair arcs
// they are exactly the per-order systems minPeriod solves; the memory cap is
// left out. The check therefore decides a superset of the orders the instance
// solve and local search can reach, and "infeasible" discards only what
// Solve's final period > bound test would have discarded.
package repetend

import "math"

// orderNodeCap bounds the branch nodes of one check. The worst check of either
// sweep pass over the catalog takes a small fraction of it (pinned by
// TestOrderCheckDiscardsOnlyWhatThePipelineDiscards); a check that would
// exceed it answers "undecided" — never a truncated verdict — and Solve goes
// on as it would have without the check, so an adversarial instance costs
// what it cost before plus a bounded constant.
const orderNodeCap = 512

// orderNodeLimit is the cap in effect. Only tests write it: 0 leaves the check
// what propagation alone decides, a negative value switches the check — and
// the forced-pair half of the prefix filter — off.
var orderNodeLimit = orderNodeCap

// orderStageCap bounds the stage count the check and the prefix filter take
// on. A matrix level is K² ints and its closure O(K³) with no context poll,
// and K comes from the request body: the catalog's largest placement has 32
// stages, a 1 MiB body fits 3,000. Above the cap the check answers
// "undecided" and the filter is not built, so such an instance runs as it did
// before either existed — slower, never different.
const orderStageCap = 128

// orderNone marks "no path" in the longest-path matrix. The closure adds path
// weights to it unguarded, so a no-path entry is any value ≤ orderNone/2:
// entries only rise from orderNone, and what is added stays below 2^58 =
// |orderNone|/8 — a closure entry is a walk of at most 2K edges (the closure
// stops at the first positive diagonal), each of weight at most N_R times one
// micro-batch's work in magnitude, which at K ≤ orderStageCap and stage times
// ≤ sched.MaxStageTime is N_R·2^31, for every N_R up to 2^19.
const orderNone = math.MinInt / 4

// orderPath reports whether a matrix entry is a path rather than no path.
func orderPath(w int) bool { return w > orderNone/2 }

// orderVerdict is the outcome of one order check.
type orderVerdict int8

const (
	// orderUndecided: the node cap ran out first.
	orderUndecided orderVerdict = iota
	// orderInfeasible: no per-device order reaches the period.
	orderInfeasible
	// orderFeasible: some order does; the deciding matrix is level ordLeaf of
	// the stack.
	orderFeasible
)

// orderChecked reports whether Solve's second prune stage runs against bound:
// at every positive bound below the sequential ceiling hiSum, which one
// stage after another reaches in any case (and which keeps the matrix entries
// within orderNone's reach), where the check is not switched off and the
// instance is within the stage cap. The check is exact at every period from
// the lower bound up — below it Solve has pruned already — and far above the
// lower bound it still pays: a memory-capped sweep's unaimed pass solves
// against its best period or one less, where most leaves that get past the
// relaxation admit no order (x8m4: 35 of 46 checked leaves at bounds 13–23,
// lower bound 6, in 84 branch nodes all told — each an instance solve saved).
func (e *periodEngine) orderChecked(bound int) bool {
	return bound > 0 && bound < e.hiSum && orderNodeLimit >= 0 && e.k <= orderStageCap
}

// orderCheck decides whether any per-device order of the bound instance has
// a period ≤ period (see the file comment). Its branch nodes accumulate in
// ordNodes.
func (e *periodEngine) orderCheck(period int) orderVerdict {
	if e.k > orderStageCap {
		return orderUndecided
	}
	if !e.orderRoot(period, 1, -1) {
		return orderInfeasible
	}
	return e.orderBranch(0)
}

// orderRoot closes the constraints every order shares — the dependency edges
// and the window edges — into level 0 of a matrix stack with room for the
// given number of levels. With lag < 0 the dependency edges are the bound
// assignment's, at the coefficients in statCoeff. Otherwise no index is known
// and each dependency path a ⇝ b enters as one edge of its longest time at
// coefficient lag (the prefix filter's root, see prefix.go). It reports false
// when the constraints hold a positive cycle: the relaxation's own verdict.
func (e *periodEngine) orderRoot(period, levels, lag int) bool {
	e.orderStack(levels)
	k := e.k
	D := e.ordMat[:k*k]
	for x := range D {
		D[x] = orderNone
	}
	for u := 0; u < k; u++ {
		row, tu := D[u*k:u*k+k], e.times[u]
		row[u] = 0
		if lag < 0 {
			for x := e.statHead[u]; x < e.statHead[u+1]; x++ {
				row[e.statTo[x]] = max(row[e.statTo[x]], tu-e.statCoeff[x]*period)
			}
		} else {
			T := e.pathT[u*k : u*k+k]
			for _, b := range e.descTo[e.descHead[u]:e.descHead[u+1]] {
				row[b] = T[b] - lag*period
			}
		}
		for x := e.winHead[u]; x < e.winHead[u+1]; x++ {
			row[e.winTo[x]] = max(row[e.winTo[x]], tu-period)
		}
	}
	// Floyd–Warshall, longest paths. A diagonal turns positive only on a row
	// the pivot has just extended, and stopping there keeps every entry a walk
	// without a positive cycle: bounded (see orderNone).
	for m := 0; m < k; m++ {
		rm := D[m*k : m*k+k]
		for i := 0; i < k; i++ {
			if im := D[i*k+m]; orderPath(im) {
				orderExtend(D[i*k:i*k+k], rm, im)
				if D[i*k+i] > 0 {
					return false
				}
			}
		}
	}
	return true
}

// orderStack makes room for levels matrices on the stack and builds the
// window pairs their propagation scans.
func (e *periodEngine) orderStack(levels int) {
	e.buildWindow()
	if n := levels * e.k * e.k; cap(e.ordMat) < n {
		e.ordMat = make([]int, n)
	}
	e.ordMat = e.ordMat[:cap(e.ordMat)]
}

// orderExtend raises row[j] to base + via[j]. base is a path; a no-path via[j]
// gives a sum that is still no path, and max keeps the larger of the two.
func orderExtend(row, via []int, base int) {
	row = row[:len(via)]
	for j, vj := range via {
		row[j] = max(row[j], base+vj)
	}
}

// orderInsert adds the arc u→v of weight w to the closed matrix D: every
// path into u now continues through every path out of v. A row whose entry at
// v the arc does not raise is closed already — D[i][j] ≥ D[i][v] + D[v][j] —
// and is skipped. The caller has checked D[v][u] + w ≤ 0, so no entry the
// update reads is one it raises.
func (e *periodEngine) orderInsert(D []int, u, v, w int) {
	k, out := e.k, D[v*e.k:v*e.k+e.k]
	for i := 0; i < k; i++ {
		if iu := D[i*k+u]; orderPath(iu) && iu+w > D[i*k+v] {
			orderExtend(D[i*k:i*k+k], out, iu+w)
		}
	}
}

// orderPropagate forces every pair of D with one side left — the arc goes in
// — until nothing changes. It reports false when some pair has neither side
// left: no order reaches the period. Otherwise (bu, bv) is the open pair with
// the least room — the one whose two sides leave the smallest combined slack
// — and bu < 0 when every pair is ordered.
func (e *periodEngine) orderPropagate(D []int) (ok bool, bu, bv int) {
	k, times, pairs := e.k, e.times, e.winPairs
	room := 0
	for changed := true; changed; {
		changed, bu = false, -1
		for x := 0; x < len(pairs); x += 2 {
			u, v := pairs[x], pairs[x+1]
			// Slack each side would keep: ≥ 0 iff the arc closes no positive
			// cycle.
			uv, vu := -(D[v*k+u] + times[u]), -(D[u*k+v] + times[v])
			switch {
			case uv < 0 && vu < 0:
				return false, -1, -1
			case uv >= 0 && vu >= 0:
				if bu < 0 || uv+vu < room {
					bu, bv, room = u, v, uv+vu
				}
			case uv >= 0:
				if D[u*k+v] < times[u] {
					e.orderInsert(D, u, v, times[u])
					changed = true
				}
			default:
				if D[v*k+u] < times[v] {
					e.orderInsert(D, v, u, times[v])
					changed = true
				}
			}
		}
	}
	return true, bu, bv
}

// orderBranch settles the matrix at the given stack depth: forced-pair
// propagation to its fixpoint, then a branch on the open pair it names, on
// copies of the matrix one level down.
func (e *periodEngine) orderBranch(depth int) orderVerdict {
	k := e.k
	ok, bu, bv := e.orderPropagate(e.ordMat[depth*k*k : (depth+1)*k*k])
	if !ok {
		return orderInfeasible
	}
	if bu < 0 {
		e.ordLeaf = depth
		return orderFeasible
	}
	if need := (depth + 2) * k * k; cap(e.ordMat) < need {
		grown := make([]int, 2*need)
		copy(grown, e.ordMat[:need-k*k])
		e.ordMat = grown
	}
	for side := 0; side < 2; side++ {
		if e.ordNodes >= int64(orderNodeLimit) {
			return orderUndecided
		}
		e.ordNodes++
		// Re-sliced per side: a deeper level may have moved the stack.
		child := e.ordMat[(depth+1)*k*k : (depth+2)*k*k]
		copy(child, e.ordMat[depth*k*k:])
		e.orderInsert(child, bu, bv, e.times[bu])
		if v := e.orderBranch(depth + 1); v != orderInfeasible {
			return v
		}
		bu, bv = bv, bu
	}
	return orderInfeasible
}
