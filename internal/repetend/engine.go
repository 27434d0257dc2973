// The period machinery of the repetend phase: an allocation-free,
// incremental feasibility engine for the difference-constraint systems of
// §IV-B. A sweep evaluates thousands of candidate orders, and each
// evaluation is a sequence of period-feasibility probes (is period P
// achievable for these per-device orders?); the engine keeps every piece of
// probe state — CSR-packed edge arrays, SPFA dist/queue vectors, per-device
// order and prefix-memory buffers — in reusable scratch so a probe performs
// zero heap allocations in the steady state, mirroring the solver package's
// searcher treatment.
//
// Two ideas carry the speedup over the dense Bellman-Ford edge lists this
// replaces:
//
//  1. Queue-based relaxation (SPFA) with positive-cycle detection by
//     Tarjan's subtree disassembly (Cherkassky & Goldberg, "Negative-cycle
//     detection algorithms", Math. Programming 85, 1999): only stages whose
//     distance actually changed are revisited, instead of re-scanning every
//     edge O(V) times, and an infeasible period is proved the moment a
//     longest-path tree would close a cycle, not after a relaxation chain
//     reaches K edges. A stage raised again takes its stale subtree out of
//     the tree, so the stages below it are not scanned at their stale
//     distances either.
//  2. In-place swap+undo local search: a candidate adjacent swap mutates
//     the engine's order and prefix-memory buffers in O(shared devices),
//     its memory check is a delta check of the single changed prefix per
//     device, and rejection undoes the swap — no cloned order vectors, no
//     full memory rescans.
//
// Everything the engine computes — the minimum period, the normalized start
// vector (the unique least fixpoint of the constraint system), and the
// pruned/infeasible statuses — is byte-identical to the dense reference
// implementation (kept under test in reference_test.go), which is what
// preserves worker-count-independent sweeps.
package repetend

import (
	"context"
	"sync"

	"tessel/internal/sched"
)

// periodStatus reports how a bounded minPeriod call ended.
type periodStatus int

const (
	// periodOK: the minimum feasible period (≤ bound, if set) was found.
	periodOK periodStatus = iota
	// periodPruned: a bound was set and the minimum period provably
	// exceeds it; the order is not necessarily infeasible.
	periodPruned
	// periodInfeasible: the constraint system has no period at all
	// (cyclic order) — a solver-order repair bug, not a prune.
	periodInfeasible
)

// periodEngines recycles periodEngine scratch — SPFA dist/queue vectors, order
// buffers, the order check's matrix stack, the shape of the placement last
// served — across Solve calls and prefix filters, so a sweep's thousands of
// feasibility probes run allocation-free instead of rebuilding edge lists per
// probe. Concurrent solves draw distinct engines.
var periodEngines = sync.Pool{New: func() any { return new(periodEngine) }}

// periodAudit, when non-nil, is invoked by localSearch after every
// candidate swap has been resolved (kept or undone). It exists solely for
// tests, which use it to cross-check the engine's incremental order and
// prefix-memory state against a freshly built instance and to exercise
// cancellation mid-pass; production code never sets it.
var periodAudit func(e *periodEngine, u, v int, accepted bool)

// periodEngine is the reusable scratch of one repetend period evaluation.
// bind attaches it to a (placement, assignment, entry-memory, capacity)
// instance; all methods below run allocation-free once the scratch has
// grown to the instance size. An engine is single-goroutine state; draw
// one per solve from periodEngines.
type periodEngine struct {
	// The placement-only half of the instance, kept across binds (bindShape).
	periodShape

	mem   int   // per-device capacity (sched.Unbounded = none)
	entry []int // per-device entry memory

	// reach is the k×k transitive closure over lag-zero dependency edges:
	// reach[u*k+v] means v is dependency-ordered after u within the
	// instance, so local search must not swap them. Only localSearch reads
	// it, so it is built on the first localSearch after bind (buildReach):
	// an assignment the relaxation prunes never pays the O(k³) closure.
	reach      []bool
	reachBuilt bool

	// statCoeff parallels the shape's statTo: dependency edge u→x with
	// coefficient c = lag ≥ 0 encodes s_x ≥ s_u + t_u − c·P (0 =
	// intra-instance, ≥ 1 = cross-instance). The one piece of edge state
	// that depends on the assignment.
	statCoeff []int

	// Per-device execution order state: order holds the stages of device d
	// in execution order in order[devHead[d]:devHead[d+1]]; ordPos[d*k+i]
	// is stage i's position within device d's order (−1 when absent);
	// prefMem parallels order with entry[d] + the running memory sum —
	// prefMem[x] is the device memory right after order[x] starts.
	order   []int
	ordPos  []int
	prefMem []int

	// SPFA state. dist is the working distance vector; feasDist holds the
	// least fixpoint of the last feasible probe of the current minPeriod
	// call; qbuf is a FIFO ring of capacity k+1 with inq de-duplicating
	// membership.
	//
	// The longest-path tree of the probe, as a circular doubly linked list
	// in preorder (next, prev) through a virtual root at index k, with each
	// stage's depth below the root: a stage's subtree is the run of the
	// list after it that lies deeper than it. A stage whose subtree was
	// disassembled is detached (depth −1) and out of the list until a
	// relaxation raises it again. All three have k+1 entries.
	dist     []int
	feasDist []int
	qbuf     []int
	qhead    int
	qtail    int
	qlen     int
	inq      []bool
	next     []int
	prev     []int
	depth    []int

	// localSearch scratch: scan snapshots one device order for candidate
	// generation; bestStarts holds the normalized start vector of the
	// current incumbent order.
	scan       []int
	bestStarts []int

	// Probe-effort counters, reset by bind and surfaced through
	// Effort/core.Stats: probes = feasibility probes run (one SPFA
	// fixpoint computation each), relaxations = successful distance
	// tightenings inside them, swaps = local-search candidate swaps that
	// reached a period evaluation.
	probes      int64
	relaxations int64
	swaps       int64

	// Order-check state (ordercheck.go): ordMat is a stack of k×k
	// longest-path matrices, one per branch depth — or, on the engine a
	// PrefixFilter holds, one per enumeration depth (prefix.go); ordLeaf is
	// the depth whose matrix decided the last "feasible" verdict; ordNodes
	// counts the branch nodes of the current bind.
	ordMat   []int
	ordLeaf  int
	ordNodes int64
}

// periodShape is the half of a repetend instance that the placement alone
// determines — stage times and memory deltas, the dependency and window edge
// lists, the device → stages layout and the bounds read off them. An engine
// derives it when it meets a placement and keeps it until it meets another.
type periodShape struct {
	p  *sched.Placement
	k  int // stages
	nd int // devices

	times []int // stage execution times
	mems  []int // stage memory deltas
	lower int   // workLowerBound: max per-device work
	hiSum int   // sum of stage times (initial binary-search ceiling)

	// driftDev is the lowest device whose stage memory deltas do not net to
	// zero over one instance (−1 when all do) and driftNet its net: under a
	// memory cap such a steady state drifts without bound.
	driftDev, driftNet int

	// Dependency edges CSR-packed by source stage; the engine's statCoeff
	// carries the per-assignment coefficient of each.
	statHead []int
	statTo   []int

	// Window edges of the order-independent relaxation (s_u ≥ s_v + t_v − P
	// for distinct same-device stages v, u), CSR-packed by source, built on
	// the first relaxedFeasible or orderRoot call, since an unbounded solve
	// never consults them. winPairs lists each same-device pair once, as
	// u, v with u < v, in the order of the CSR: the order check's pair scan.
	winHead  []int
	winTo    []int
	winPairs []int
	winSeen  []int // dedup stamps, one per stage
	winBuilt bool

	// Dependency paths, for the prefix filter (buildPaths): pathT[a*k+b] is
	// the longest time along a dependency path from a to b, b's own time not
	// counted, 0 when b does not descend from a; descTo lists each stage's
	// descendants CSR-packed by source.
	pathT      []int
	descHead   []int
	descTo     []int
	pathsBuilt bool

	// Device → stages CSR in ascending stage order (the canonical
	// DeviceStages order). order/prefMem share this segment layout.
	devHead   []int
	devStages []int
}

// growInts returns s resized to n, reusing its backing array when large
// enough. Contents are unspecified; callers overwrite.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// build derives the shape of p: it packs the dependency edges into CSR form
// and lays out the per-device stage segments, summing each device's work and
// net memory on the way. All buffers reuse prior capacity.
func (sh *periodShape) build(p *sched.Placement) {
	k, nd := p.K(), p.NumDevices
	sh.p, sh.k, sh.nd = p, k, nd
	sh.winBuilt, sh.pathsBuilt = false, false

	sh.times = growInts(sh.times, k)
	sh.mems = growInts(sh.mems, k)
	hi := 0
	for i := range p.Stages {
		sh.times[i] = p.Stages[i].Time
		sh.mems[i] = p.Stages[i].Mem
		hi += p.Stages[i].Time
	}
	sh.hiSum = hi

	nEdges := 0
	for i := range p.Deps {
		nEdges += len(p.Deps[i])
	}
	sh.statHead = growInts(sh.statHead, k+1)
	sh.statTo = growInts(sh.statTo, nEdges)
	pos := 0
	for i, succs := range p.Deps {
		sh.statHead[i] = pos
		pos += copy(sh.statTo[pos:], succs)
	}
	sh.statHead[k] = pos

	// Device → stages CSR in ascending stage order, and the device-work
	// period lower bound (Algorithm 1, GetLowerBound).
	sh.devHead = growInts(sh.devHead, nd+1)
	clear(sh.devHead)
	slots := 0
	for i := range p.Stages {
		slots += len(p.Stages[i].Devices)
		for _, d := range p.Stages[i].Devices {
			sh.devHead[d+1]++
		}
	}
	for d := 0; d < nd; d++ {
		sh.devHead[d+1] += sh.devHead[d]
	}
	sh.devStages = growInts(sh.devStages, slots)
	// Fill segments in stage order with devHead[d] as device d's moving
	// cursor, which leaves every head one segment ahead; shift them back.
	for i := range p.Stages {
		for _, d := range p.Stages[i].Devices {
			sh.devStages[sh.devHead[d]] = i
			sh.devHead[d]++
		}
	}
	copy(sh.devHead[1:], sh.devHead[:nd])
	sh.devHead[0] = 0
	sh.lower, sh.driftDev = 1, -1
	for d := 0; d < nd; d++ {
		w, net := 0, 0
		for x := sh.devHead[d]; x < sh.devHead[d+1]; x++ {
			w += sh.times[sh.devStages[x]]
			net += sh.mems[sh.devStages[x]]
		}
		if w > sh.lower {
			sh.lower = w
		}
		if net != 0 && sh.driftDev < 0 {
			sh.driftDev, sh.driftNet = d, net
		}
	}
	if sh.hiSum < sh.lower {
		sh.hiSum = sh.lower
	}
}

// bindShape attaches the engine to the shape of p, rebuilt in place unless p is
// the placement the engine last served: a sweep's engines derive it once each,
// not once per assignment. A placement is not modified once it has been
// searched, so the pointer identifies the shape.
func (e *periodEngine) bindShape(p *sched.Placement) {
	if e.p != p {
		e.build(p)
	}
}

// bind attaches the engine to one repetend instance: the shape of p, the
// assignment's lag per dependency edge, the entry memory, and zeroed effort
// counters. All buffers reuse prior capacity.
func (e *periodEngine) bind(p *sched.Placement, a Assignment, entry []int, mem int) {
	e.bindShape(p)
	k := e.k
	e.mem = mem
	e.probes, e.relaxations, e.swaps, e.ordNodes = 0, 0, 0, 0
	e.reachBuilt = false
	e.entry = append(e.entry[:0], entry...)

	// Every dependency i→j has coefficient lag = r_i − r_j (0 =
	// intra-instance, ≥1 = cross-instance).
	e.statCoeff = growInts(e.statCoeff, len(e.statTo))
	for i := 0; i < k; i++ {
		for x := e.statHead[i]; x < e.statHead[i+1]; x++ {
			e.statCoeff[x] = a[i] - a[e.statTo[x]]
		}
	}

	slots := len(e.devStages)
	e.order = growInts(e.order, slots)
	e.prefMem = growInts(e.prefMem, slots)
	e.ordPos = growInts(e.ordPos, e.nd*k)
	e.dist = growInts(e.dist, k)
	e.feasDist = growInts(e.feasDist, k)
	e.next = growInts(e.next, k+1)
	e.prev = growInts(e.prev, k+1)
	e.depth = growInts(e.depth, k+1)
	e.inq = growBools(e.inq, k)
	e.qbuf = growInts(e.qbuf, k+1)
}

// workLowerBound is max_d E_d's floor: no period can be smaller than the
// busiest device's total work.
func (sh *periodShape) workLowerBound() int { return sh.lower }

// buildReach computes the lag-zero transitive closure from the static edges
// (Floyd-Warshall on booleans; K is small). Built once per bind, and only
// when the instance gets as far as local search.
func (e *periodEngine) buildReach() {
	if e.reachBuilt {
		return
	}
	e.reachBuilt = true
	k := e.k
	e.reach = growBools(e.reach, k*k)
	clear(e.reach)
	for u := 0; u < k; u++ {
		for x := e.statHead[u]; x < e.statHead[u+1]; x++ {
			if e.statCoeff[x] == 0 {
				e.reach[u*k+e.statTo[x]] = true
			}
		}
	}
	for m := 0; m < k; m++ {
		for i := 0; i < k; i++ {
			if !e.reach[i*k+m] {
				continue
			}
			for j := 0; j < k; j++ {
				if e.reach[m*k+j] {
					e.reach[i*k+j] = true
				}
			}
		}
	}
}

// buildWindow packs the order-independent device-window constraints: for
// every ordered pair (v, u) of distinct stages sharing a device,
// s_u ≥ s_v + t_v − P, deduplicated across devices. Built once per shape; a
// no-op from then on.
func (sh *periodShape) buildWindow() {
	if sh.winBuilt {
		return
	}
	sh.winBuilt = true
	sh.winHead = growInts(sh.winHead, sh.k+1)
	sh.winSeen = growInts(sh.winSeen, sh.k)
	for i := 0; i < sh.k; i++ {
		sh.winSeen[i] = -1
	}
	sh.winTo, sh.winPairs = sh.winTo[:0], sh.winPairs[:0]
	for v := 0; v < sh.k; v++ {
		sh.winHead[v] = len(sh.winTo)
		for _, dd := range sh.p.Stages[v].Devices {
			d := int(dd)
			for x := sh.devHead[d]; x < sh.devHead[d+1]; x++ {
				u := sh.devStages[x]
				if u != v && sh.winSeen[u] != v {
					sh.winSeen[u] = v
					sh.winTo = append(sh.winTo, u)
					if v < u {
						sh.winPairs = append(sh.winPairs, v, u)
					}
				}
			}
		}
	}
	sh.winHead[sh.k] = len(sh.winTo)
}

// buildPaths computes pathT and the descendant lists, walking the stages in
// reverse of the topological order given: a stage's longest path to b runs
// through one of its successors, whose rows are final by then. Built once per
// shape, and only for a prefix filter; a no-op from then on.
func (sh *periodShape) buildPaths(topo []int) {
	if sh.pathsBuilt {
		return
	}
	sh.pathsBuilt = true
	k := sh.k
	sh.pathT = growInts(sh.pathT, k*k)
	clear(sh.pathT)
	for x := k - 1; x >= 0; x-- {
		u := topo[x]
		row, tu := sh.pathT[u*k:u*k+k], sh.times[u]
		for _, s := range sh.statTo[sh.statHead[u]:sh.statHead[u+1]] {
			row[s] = max(row[s], tu)
			for b, sb := range sh.pathT[s*k : s*k+k] {
				if sb > 0 {
					row[b] = max(row[b], tu+sb)
				}
			}
		}
	}
	sh.descHead = growInts(sh.descHead, k+1)
	sh.descTo = sh.descTo[:0]
	for a := 0; a < k; a++ {
		sh.descHead[a] = len(sh.descTo)
		for b, t := range sh.pathT[a*k : a*k+k] {
			if t > 0 {
				sh.descTo = append(sh.descTo, b)
			}
		}
	}
	sh.descHead[k] = len(sh.descTo)
}

// --- SPFA core -----------------------------------------------------------

func (e *periodEngine) push(u int) {
	e.qbuf[e.qtail] = u
	e.qtail++
	if e.qtail == len(e.qbuf) {
		e.qtail = 0
	}
	e.qlen++
}

func (e *periodEngine) pop() int {
	u := e.qbuf[e.qhead]
	e.qhead++
	if e.qhead == len(e.qbuf) {
		e.qhead = 0
	}
	e.qlen--
	return u
}

// relax applies one difference constraint s_v ≥ s_u + w. When it raises v,
// v's subtree in the longest-path tree is unlinked and detached — its
// distances came through v's old one — and v is re-hung under u. It reports
// false when u is v or lies in v's subtree: every tree edge is tight, so the
// tree path from v to u closes with this edge into a positive cycle, and no
// period-P solution exists.
func (e *periodEngine) relax(u, v, w int) bool {
	d := e.dist[u] + w
	if d <= e.dist[v] {
		return true
	}
	e.dist[v] = d
	e.relaxations++
	if u == v {
		return false
	}
	if dv := e.depth[v]; dv >= 0 {
		// Detach the run after v that lies deeper than v, then unlink v
		// and that run from the list.
		x := e.next[v]
		for e.depth[x] > dv {
			if x == u {
				return false
			}
			e.depth[x] = -1
			x = e.next[x]
		}
		p := e.prev[v]
		e.next[p], e.prev[x] = x, p
	}
	// Re-hang v as u's first child: right after u in preorder.
	n := e.next[u]
	e.next[u], e.prev[v] = v, u
	e.next[v], e.prev[n] = n, v
	e.depth[v] = e.depth[u] + 1
	if !e.inq[v] {
		e.inq[v] = true
		e.push(v)
	}
	return true
}

// seedCold resets dist to the all-zero vector, enqueues every stage and
// hangs every stage on the tree's virtual root — the from-scratch start
// whose least fixpoint is the canonical minimal start-time vector. It
// resets all of the tree, so a pooled engine probes as a fresh one does.
func (e *periodEngine) seedCold() {
	k := e.k
	for i := 0; i < k; i++ {
		e.dist[i] = 0
		e.inq[i] = true
		e.qbuf[i] = i
		e.next[i], e.prev[i+1], e.depth[i] = i+1, i, 1
	}
	e.next[k], e.prev[0], e.depth[k] = 0, k, 0
	e.qhead, e.qtail, e.qlen = 0, k, k
	if e.qtail == len(e.qbuf) {
		e.qtail = 0
	}
}

// run drains the SPFA queue at the given period, relaxing each popped
// stage's outgoing constraints: always the static dependency edges, plus
// the device-window edges (window mode, the order-independent relaxation)
// or the execution-order edges implied by the engine's current order
// buffers (orders mode). A popped stage that is detached is skipped: its
// distance is stale, and the stage that detached it will raise it again.
// It reports false on a positive cycle.
func (e *periodEngine) run(period int, window, orders bool) bool {
	e.probes++
	for e.qlen > 0 {
		u := e.pop()
		e.inq[u] = false
		if e.depth[u] < 0 {
			continue
		}
		tu := e.times[u]
		for x := e.statHead[u]; x < e.statHead[u+1]; x++ {
			if !e.relax(u, e.statTo[x], tu-e.statCoeff[x]*period) {
				return false
			}
		}
		if window {
			for x := e.winHead[u]; x < e.winHead[u+1]; x++ {
				if !e.relax(u, e.winTo[x], tu-period) {
					return false
				}
			}
		}
		if orders {
			for _, dd := range e.p.Stages[u].Devices {
				d := int(dd)
				base, end := e.devHead[d], e.devHead[d+1]
				pu := e.ordPos[d*e.k+u]
				if base+pu+1 < end {
					// u immediately precedes its order successor.
					if !e.relax(u, e.order[base+pu+1], tu) {
						return false
					}
				} else if end-base > 1 {
					// Device wrap-around: the last stage constrains the
					// first stage of the next instance (span E_d ≤ P).
					if !e.relax(u, e.order[base], tu-period) {
						return false
					}
				}
			}
		}
	}
	return true
}

// probeOrders reports whether the engine's current orders admit period P, from
// a cold start; a feasible probe leaves its least fixpoint in feasDist (the
// buffers swap; the next seed overwrites the stale one).
func (e *periodEngine) probeOrders(period int) bool {
	e.seedCold()
	if !e.run(period, false, true) {
		return false
	}
	e.dist, e.feasDist = e.feasDist, e.dist
	return true
}

// relaxedFeasible reports whether period P survives the order-independent
// relaxation of the repetend constraint system: the dependency edges plus
// the device-window edges, valid for every execution order. Every
// per-order system contains a superset of these constraints and
// feasibility is monotone in P, so a false result proves min period > P
// for all per-device orders — without touching the solver.
func (e *periodEngine) relaxedFeasible(period int) bool {
	e.buildWindow()
	e.seedCold()
	return e.run(period, true, false)
}

// setOrdersFromStarts installs the per-device execution orders induced by
// the given start times: each device's stages sorted by start, ties broken
// by stage id (starts of same-device stages are distinct for any valid
// instance schedule — exclusive execution — but the tie-break keeps the
// orders a pure function of the start vector for arbitrary inputs). It
// also computes the per-device prefix-memory sums the local search's delta
// checks maintain. Mirrors ordersFromStarts.
func (e *periodEngine) setOrdersFromStarts(starts []int) {
	for x := range e.ordPos {
		e.ordPos[x] = -1
	}
	for d := 0; d < e.nd; d++ {
		base, end := e.devHead[d], e.devHead[d+1]
		copy(e.order[base:end], e.devStages[base:end])
		// In-place insertion sort by (start, stage id): segments are tiny
		// and already id-sorted, and no sort.Slice closure allocates.
		for x := base + 1; x < end; x++ {
			id := e.order[x]
			y := x
			for y > base {
				prev := e.order[y-1]
				if starts[prev] < starts[id] || (starts[prev] == starts[id] && prev < id) {
					break
				}
				e.order[y] = prev
				y--
			}
			e.order[y] = id
		}
		m := e.entry[d]
		for x := base; x < end; x++ {
			id := e.order[x]
			e.ordPos[d*e.k+id] = x - base
			m += e.mems[id]
			e.prefMem[x] = m
		}
	}
}

// minPeriod binary-searches the smallest feasible period for the engine's
// current orders. A positive bound restricts the search to periods ≤
// bound: when even the bound is infeasible the call returns periodPruned
// without locating the true minimum. On periodOK the least-fixpoint start
// vector is held in feasDist (retrieve with appendStarts).
//
// Bounded calls — the local-search hot path, where most candidates are
// rejected — probe their ceiling first, so the common pruned case costs a
// single probe; unbounded calls try the device-work lower bound first, so
// orders that achieve it (the common case near convergence) cost one too.
func (e *periodEngine) minPeriod(bound int) (int, periodStatus) {
	lo := e.lower
	if bound > 0 && lo > bound {
		return 0, periodPruned
	}
	hi := e.hiSum
	if bound > 0 {
		hi = min(hi, bound)
		if !e.probeOrders(hi) {
			if bound < e.hiSum {
				return 0, periodPruned
			}
			// Not even the sequential ceiling admits a solution: the
			// order system is cyclic at every period.
			return 0, periodInfeasible
		}
		if lo == hi || e.probeOrders(lo) {
			return lo, periodOK
		}
	} else {
		if e.probeOrders(lo) {
			return lo, periodOK
		}
		if !e.probeOrders(hi) {
			return 0, periodInfeasible
		}
	}
	lo++ // the probe above proved lo itself infeasible
	for lo < hi {
		if mid := (lo + hi) / 2; e.probeOrders(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Loop exit has lo == hi == the smallest feasible probed period, whose
	// fixpoint is already in feasDist — no confirming re-probe needed.
	return lo, periodOK
}

// appendStarts appends the normalized (minimum 0) start vector of the last
// feasible probe to dst[:0] and returns it.
func (e *periodEngine) appendStarts(dst []int) []int {
	dst = append(dst[:0], e.feasDist[:e.k]...)
	normalize(dst)
	return dst
}

// applySwap exchanges adjacent stages u and v in every device order where
// both appear. It reports false — mutating nothing — when they appear
// non-adjacently somewhere (the swap is undefined there). On success the
// affected prefix-memory entries are updated; calling applySwap(u, v)
// again undoes the swap exactly.
func (e *periodEngine) applySwap(u, v int) bool {
	for _, dd := range e.p.Stages[u].Devices {
		d := int(dd)
		pv := e.ordPos[d*e.k+v]
		if pv < 0 {
			continue
		}
		pu := e.ordPos[d*e.k+u]
		if pu-pv != 1 && pv-pu != 1 {
			return false
		}
	}
	for _, dd := range e.p.Stages[u].Devices {
		d := int(dd)
		pv := e.ordPos[d*e.k+v]
		if pv < 0 {
			continue
		}
		pu := e.ordPos[d*e.k+u]
		base := e.devHead[d]
		e.order[base+pu], e.order[base+pv] = v, u
		e.ordPos[d*e.k+u], e.ordPos[d*e.k+v] = pv, pu
		// Only the prefix between the swapped pair changes: the sums
		// before min(pu,pv) and from max(pu,pv) onward are unaffected.
		x := pu
		if pv < x {
			x = pv
		}
		prev := e.entry[d]
		if x > 0 {
			prev = e.prefMem[base+x-1]
		}
		e.prefMem[base+x] = prev + e.mems[e.order[base+x]]
	}
	return true
}

// swapMemoryOK checks the memory feasibility of the just-applied swap of u
// and v. The engine's orders are memory-feasible by invariant (the initial
// orders come from a memory-respecting instance schedule and every
// accepted swap re-established the check), so only the single changed
// prefix per shared device needs testing.
func (e *periodEngine) swapMemoryOK(u, v int) bool {
	if e.mem == sched.Unbounded {
		return true
	}
	for _, dd := range e.p.Stages[u].Devices {
		d := int(dd)
		pv := e.ordPos[d*e.k+v]
		if pv < 0 {
			continue
		}
		pu := e.ordPos[d*e.k+u]
		x := pu
		if pv < x {
			x = pv
		}
		if e.prefMem[e.devHead[d]+x] > e.mem {
			return false
		}
	}
	return true
}

// localSearch improves the period by swapping adjacent order pairs that
// are not dependency-ordered, evaluating each candidate in place on the
// engine's order buffers (swap, delta memory check, bounded minPeriod) and
// undoing rejected swaps. Only a strict improvement is useful, so each
// inner search runs with bound period−1 and bails out as soon as the swap
// cannot beat the incumbent order. Passes are bounded by the improvement
// rate — every non-final pass improves the period by at least one tick, so
// at most period−lower passes can make progress — and the search stops
// immediately once the device-work lower bound is reached. Cancellation
// stops further candidates; the best ordering found so far is kept (the
// engine's orders and bestStarts always describe the incumbent).
//
// All bounds here derive from per-assignment state only (never from a
// shared sweep incumbent), so the result is a pure function of the
// assignment — a requirement for worker-count-independent sweeps. On
// return bestStarts holds the incumbent's normalized start vector.
func (e *periodEngine) localSearch(ctx context.Context, period int) int {
	lower := e.lower
	maxPasses := e.k * e.k
	if maxPasses > period-lower {
		maxPasses = period - lower
	}
	for pass := 0; pass < maxPasses && period > lower && ctx.Err() == nil; pass++ {
		e.buildReach() // no-op after the first pass
		improved := false
		for d := 0; d < e.nd; d++ {
			base, end := e.devHead[d], e.devHead[d+1]
			// Candidate pairs come from a snapshot of the device order as
			// of the start of this device's scan: an accepted swap changes
			// the live order, and a snapshot pair that is no longer
			// adjacent is skipped by applySwap.
			e.scan = append(e.scan[:0], e.order[base:end]...)
			for x := 0; x+1 < len(e.scan); x++ {
				if ctx.Err() != nil {
					return period
				}
				u, v := e.scan[x], e.scan[x+1]
				if e.reach[u*e.k+v] {
					continue // dependency-forced order
				}
				if !e.applySwap(u, v) {
					continue
				}
				if !e.swapMemoryOK(u, v) {
					e.applySwap(u, v) // undo
					continue
				}
				e.swaps++
				p2, st := e.minPeriod(period - 1)
				if st == periodOK {
					period = p2
					e.bestStarts = e.appendStarts(e.bestStarts)
					improved = true
				} else {
					e.applySwap(u, v) // undo
				}
				if periodAudit != nil {
					periodAudit(e, u, v, st == periodOK)
				}
				if st == periodOK && period <= lower {
					return period
				}
			}
		}
		if !improved {
			break
		}
	}
	return period
}
