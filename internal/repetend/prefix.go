// The enumeration walk and its prefix filter: the longest-path matrix of the
// relaxation and the order check (ordercheck.go), carried down Algorithm 1's
// enumeration tree instead of being rebuilt at every leaf.
//
// The tree fixes one stage's micro index per level, in topological order; a
// subtree whose prefix stays below index nr−1 with no predecessor-free stage
// left to take it holds no canonical assignment and is skipped outright. The
// filter keeps one closed K×K matrix per level: level d is the closure of the
// dependency and window edges at period P — the bound the round is walked at,
// one constant per round — with the first d stages at their index. An edge
// between two fixed stages carries its real lag. The constraints that involve
// a free stage enter telescoped: a dependency path a ⇝ b, whose longest time
// T[a][b] (b's own not counted) the placement fixes, is one edge s_b − s_a ≥
// T[a][b] − L·P with L the most r_a − r_b can be — nr−1 while a is free, r_a
// once a is fixed (indices are ≥ 0). Level 0 is closed from those edges at
// nr−1, so a round with too few periods for some path between two blocks of
// one device is a positive cycle there and is not walked at all. Fixing stage
// i copies the parent's level, raises the edges into i to their real lag, each
// an O(K²) insertion, and the paths out of i — all of whose ends are still
// free, in topological order — to lag r_i, in one O(K²) update of i's row and
// the rows that reach it. A raise that would close a positive cycle cuts the
// subtree, and so does a same-device pair with neither order left after
// forced-pair propagation — the propagation of the order check; in the last
// branchLevels levels the whole check, which cuts on "infeasible" only.
// Split and Walk are Enumerate in two halves.
//
// Soundness: summing the stage-1 constraints s_x ≥ s_u + t_u − (r_u − r_x)·P
// along a path a ⇝ b telescopes the lags to r_a − r_b, at most L; so every
// completion of a prefix satisfies each telescoped edge, and each edge between
// fixed stages carries the completion's own coefficient. A prefix system is
// therefore a relaxation of each completion's stage-1 and stage-2 systems (see
// Solve) with the same same-device pairs, and a cut removes only leaves for
// which Solve, at that bound, returns no repetend — ErrPruned, or
// ErrInfeasible where the entry memory already rules the leaf out. Such a leaf
// never was a sweep's winner or tied with it, so the filter changes what a
// sweep pays, not what it returns. Nor does telescoping change which leaves
// are yielded: at the last level every index is fixed, each telescoped edge is
// dominated by its path of real edges, and the matrix is the leaf's own — its
// relaxation closed and its forced pairs propagated, as the order check does
// it. The paths only make a prefix fail sooner.
package repetend

import (
	"context"
	"slices"

	"tessel/internal/sched"
)

// prefixFilterOn is written only by tests: false makes NewPrefixFilter return
// the unfiltered walk, the reference the filter is compared against.
var prefixFilterOn = true

// prefixPollEvery is how many filter checks — microseconds at most, each — pass
// between two polls of the walk's context: a stretch of the tree in which
// everything is cut reaches no leaf, and so no yield that could stop it. The
// walk polls before every check that branches, up to orderNodeCap nodes.
const prefixPollEvery = 256

// branchLevels is how many levels above the leaves Split stops.
const branchLevels = 3

// PrefixFilter walks the enumeration tree of one placement, round by round,
// and cuts the subtrees whose prefix already proves that no completion has a
// period within the bound. One filter serves every round of a search; it is
// single-goroutine state, and Close hands its scratch back.
type PrefixFilter struct {
	order  []int   // stages in topological order, one per tree level
	preds  [][]int // predecessor table
	assign Assignment
	// sources[pos] counts the stages without predecessor from level pos down:
	// the only ones that can still take index nr−1 once no stage above has.
	sources []int

	// The round being walked; a Split walk hands its subtrees to yieldSub.
	ctx      context.Context
	nr       int
	yield    func(Assignment) bool
	yieldSub func(*Subtree) bool
	sub      Subtree

	// e holds the matrix stack (ordMat, K+1 levels) and the shape, paths
	// included; nil when the walk is unfiltered (Enumerate's, or over the
	// stage cap) and between the walks of a Walker, which draws one for p.
	e *periodEngine
	p *sched.Placement
	// period is the bound level 0 is closed at, 0 when the round has none and
	// runs unfiltered; forced is true when pushes also run forced-pair
	// propagation.
	period int
	forced bool

	eff Effort
}

func newPrefixFilter(p *sched.Placement) (*PrefixFilter, error) {
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	f := &PrefixFilter{order: order, preds: p.PredTable(), assign: make(Assignment, p.K()), sources: make([]int, p.K()+1)}
	for pos := p.K() - 1; pos >= 0; pos-- {
		f.sources[pos] = f.sources[pos+1]
		if len(f.preds[order[pos]]) == 0 {
			f.sources[pos]++
		}
	}
	return f, nil
}

// NewPrefixFilter returns the filter of p, its scratch a pooled period engine
// that Close returns. A placement of more than orderStageCap stages gets the
// unfiltered walk.
func NewPrefixFilter(p *sched.Placement) (*PrefixFilter, error) {
	f, err := newPrefixFilter(p)
	if err != nil || !prefixFilterOn || p.K() > orderStageCap {
		return f, err
	}
	f.e = periodEngines.Get().(*periodEngine)
	f.e.bindShape(p)
	f.e.buildPaths(f.order)
	return f, nil
}

// Close returns the filter's engine — its matrix stack is a search's largest
// single piece of scratch — to the pool. The filter must not be used again.
func (f *PrefixFilter) Close() {
	if f.e != nil {
		periodEngines.Put(f.e)
		f.e = nil
	}
}

// Enumerate yields, in Enumerate's order, the canonical assignments of round
// nr that the filter cannot rule out against bound; at bound 0 nothing is cut
// and the round is Enumerate's. yield returning false, or ctx ending, stops
// the walk; the result reports whether it ran to completion.
func (f *PrefixFilter) Enumerate(ctx context.Context, nr, bound int, yield func(Assignment) bool) bool {
	f.ctx, f.nr, f.yield = ctx, nr, yield
	f.period, f.eff = 0, Effort{}
	if f.e != nil && bound > 0 && !f.root(bound) {
		return true // level 0 holds a positive cycle: no leaf of the round survives
	}
	return f.walk(0, 0)
}

// Split walks round nr down to branchLevels levels above the leaves and
// yields each node there, as a view valid during the call (see Subtree.Set).
func (f *PrefixFilter) Split(ctx context.Context, nr, bound int, yield func(*Subtree) bool) bool {
	f.yieldSub = yield
	defer func() { f.yieldSub = nil }()
	return f.Enumerate(ctx, nr, bound, nil)
}

// Walker returns a filter of f's placement for Walk that holds a pooled engine
// only during a walk: a pooled engine keeps the largest matrix stack any
// placement grew in it, so a worker holds one at a time, to walk or to solve.
func (f *PrefixFilter) Walker() *PrefixFilter {
	w := &PrefixFilter{order: f.order, preds: f.preds, assign: make(Assignment, len(f.assign)), sources: f.sources}
	if f.e != nil {
		w.p = f.e.p
	}
	return w
}

// Walk resumes the walk below st, split off by another filter of the
// placement, and yields what Enumerate yields there.
func (f *PrefixFilter) Walk(ctx context.Context, st *Subtree, yield func(Assignment) bool) bool {
	f.ctx, f.nr, f.yield, f.period, f.eff = ctx, st.nr, yield, 0, Effort{}
	copy(f.assign, st.assign)
	if f.e == nil && f.p != nil && len(st.mat) > 0 {
		f.e = periodEngines.Get().(*periodEngine)
		f.e.bindShape(f.p)
		f.e.buildPaths(f.order)
		defer f.Close()
	}
	if e := f.e; e != nil && len(st.mat) > 0 {
		e.orderStack(e.k + 1)
		copy(e.ordMat[st.depth*e.k*e.k:], st.mat)
		f.period, f.forced = st.bound, e.orderChecked(st.bound)
	}
	return f.walk(st.depth, st.top)
}

// Effort is what the last Enumerate, Split or Walk call spent.
func (f *PrefixFilter) Effort() Effort { return f.eff }

// A Subtree is a node of a round's enumeration tree, as Split hands it out.
type Subtree struct {
	nr, bound  int // the round, and the period its matrix is closed at
	depth, top int // its level, and the largest index fixed above it
	order      []int
	assign     Assignment
	mat        []int // nil when the round is walked unfiltered
}

// Set makes s a copy of o in s's own buffers.
func (s *Subtree) Set(o *Subtree) {
	*s = Subtree{o.nr, o.bound, o.depth, o.top, o.order, append(s.assign[:0], o.assign...), append(s.mat[:0], o.mat...)}
}

// Leaf is the subtree of round nr that is the single leaf a; it shares a.
func Leaf(nr int, a Assignment) Subtree {
	return Subtree{nr: nr, depth: len(a), top: nr - 1, assign: a}
}

// Prefix returns the indices fixed above s, with −1 for the stages below it.
func (s *Subtree) Prefix() Assignment {
	a := s.assign.Clone()
	for x := s.depth; x < len(s.order); x++ {
		a[s.order[x]] = -1
	}
	return a
}

// walk fixes the stage of level pos and below; top is the largest index above.
func (f *PrefixFilter) walk(pos, top int) bool {
	if top < f.nr-1 && f.sources[pos] == 0 {
		return true // no assignment below has max index nr−1
	}
	if f.yieldSub != nil && pos == max(len(f.order)-branchLevels, 0) {
		f.sub = Subtree{f.nr, f.period, pos, top, f.order, f.assign, nil}
		if k := len(f.order); f.period > 0 {
			f.sub.mat = f.e.ordMat[pos*k*k : (pos+1)*k*k]
		}
		return f.yieldSub(&f.sub)
	}
	if pos == len(f.order) {
		if slices.Min(f.assign) != 0 {
			return true
		}
		return f.yield(f.assign.Clone())
	}
	i := f.order[pos]
	hi := f.nr - 1
	for _, pr := range f.preds[i] {
		hi = min(hi, f.assign[pr])
	}
	for v := hi; v >= 0; v-- {
		f.assign[i] = v
		if f.period > 0 {
			branches := f.forced && pos+branchLevels >= len(f.order)
			if f.eff.PrefixChecks++; (branches || f.eff.PrefixChecks%prefixPollEvery == 0) && f.ctx.Err() != nil {
				return false
			}
			if !f.push(pos, i, v) {
				f.eff.PrefixCuts++
				continue
			}
		}
		if !f.walk(pos+1, max(top, v)) {
			return false
		}
	}
	return true
}

// root closes level 0 at period for the round being walked, every dependency
// path at lag nr−1, and reports whether it holds no positive cycle.
func (f *PrefixFilter) root(period int) bool {
	f.period = period
	f.forced = f.e.orderChecked(period)
	return f.e.orderRoot(period, f.e.k+1, f.nr-1)
}

// push derives level pos+1 from level pos with stage i at index v: the edges
// into i get their real lag, the paths out of it lag v. It reports false when
// the level admits no solution — the subtree is cut.
func (f *PrefixFilter) push(pos, i, v int) bool {
	e := f.e
	kk := e.k * e.k
	D := e.ordMat[(pos+1)*kk : (pos+2)*kk]
	copy(D, e.ordMat[pos*kk:(pos+1)*kk])
	for _, pr := range f.preds[i] {
		if !e.orderRaise(D, pr, i, e.times[pr]-(f.assign[pr]-v)*f.period) {
			return false
		}
	}
	if !e.orderRaisePaths(D, i, v*f.period) {
		return false
	}
	if !f.forced {
		return true
	}
	if pos+branchLevels < len(f.order) {
		ok, _, _ := e.orderPropagate(D)
		return ok
	}
	// The whole check, branching on the levels the walk has not reached yet.
	e.ordNodes = 0
	cut := e.orderBranch(pos+1) == orderInfeasible
	f.eff.OrderChecks++
	f.eff.OrderNodes += e.ordNodes
	if cut {
		f.eff.OrderPruned++
	}
	return !cut
}

// orderRaise raises the arc u→v of the closed matrix D to weight w. It reports
// false, leaving D as it was, when that closes a positive cycle.
func (e *periodEngine) orderRaise(D []int, u, v, w int) bool {
	if D[u*e.k+v] >= w {
		return true
	}
	if D[v*e.k+u]+w > 0 {
		return false
	}
	e.orderInsert(D, u, v, w)
	return true
}

// orderRaisePaths raises the arc from u to each descendant b of the closed
// matrix D to pathT[u][b] − shift, as one update of node u: u's out-row takes
// the best continuation through every arc that rises, and each row that
// reaches u then extends through the new out-row once. A path through two of
// the arcs passes u twice, and the cycle between them is worth ≤ 0 once u's
// diagonal is, so one pass closes D. It reports false when the diagonal turns
// positive — the arcs close a positive cycle; D is then left half-updated,
// which a cut level may be.
func (e *periodEngine) orderRaisePaths(D []int, u, shift int) bool {
	k := e.k
	out, T := D[u*k:u*k+k], e.pathT[u*k:u*k+k]
	raised := false
	for _, b := range e.descTo[e.descHead[u]:e.descHead[u+1]] {
		// An arc that does not rise above out[b] adds nothing: D is closed,
		// and out only rises while the loop runs.
		if w := T[b] - shift; w > out[b] {
			orderExtend(out, D[b*k:b*k+k], w)
			raised = true
		}
	}
	if !raised {
		return true
	}
	if out[u] > 0 {
		return false
	}
	for x := 0; x < k; x++ {
		if xu := D[x*k+u]; x != u && orderPath(xu) {
			orderExtend(D[x*k:x*k+k], out, xu)
		}
	}
	return true
}
