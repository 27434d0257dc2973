// The enumeration walk and its prefix filter: the longest-path matrix of the
// relaxation and the order check (ordercheck.go), carried down Algorithm 1's
// enumeration tree instead of being rebuilt at every leaf.
//
// The tree fixes one stage's micro index per level, in topological order; a
// subtree whose prefix stays below index nr−1 with no predecessor-free stage
// left to take it holds no canonical assignment and is skipped outright. The
// filter keeps one closed K×K matrix per level: level d is the closure of the
// dependency and window edges at period P — the bound the round is walked at,
// one constant per round — with the first d stages at their index. An edge between two fixed stages
// carries its real lag; an edge out of a fixed stage i into a free one carries
// lag r_i, the most it can be (indices are ≥ 0); an edge between two free
// stages carries nr−1, the most any assignment of the round gives it. Fixing a
// stage copies the parent's level and raises the edges that just became
// tighter, each an O(K²) insertion. An insertion that would close a positive
// cycle cuts the subtree, and where P is the device-work lower bound so does a
// same-device pair with neither order left after forced-pair propagation — the
// propagation of the order check, which here never branches.
//
// Soundness: every coefficient is ≥ the one any completion of the prefix has
// and the constraints are monotone in the coefficients, so a prefix system is
// a relaxation of each completion's stage-1 and stage-2 systems (see Solve),
// and a cut removes only leaves for which Solve, at that bound, returns before
// its instance solve with no repetend — ErrPruned, or
// ErrInfeasible where the entry memory already rules the leaf out. Such a leaf
// never was a sweep's winner or tied with it, so the filter changes what a
// sweep pays, not what it returns.
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
// everything is cut reaches no leaf, and so no yield that could stop it.
const prefixPollEvery = 256

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

	// The round being walked.
	ctx   context.Context
	nr    int
	yield func(Assignment) bool

	// e holds the matrix stack (ordMat, K+1 levels) and the placement's
	// shape; nil when the walk is unfiltered — Enumerate's, or a placement
	// over the stage cap.
	e *periodEngine
	// period is the bound level 0 is closed at, 0 when the round has none and
	// runs unfiltered. live is false when level 0 itself holds a positive
	// cycle, forced when pushes also run forced-pair propagation.
	period       int
	live, forced bool

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
	f.e.statCoeff = growInts(f.e.statCoeff, len(f.e.statTo))
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
	if f.e != nil && bound > 0 {
		f.root(bound)
	}
	return f.walk(0, 0)
}

// Effort is what the last Enumerate call spent: PrefixChecks and PrefixCuts.
func (f *PrefixFilter) Effort() Effort { return f.eff }

// walk fixes the stage of level pos and below; top is the largest index above.
func (f *PrefixFilter) walk(pos, top int) bool {
	if top < f.nr-1 && f.sources[pos] == 0 {
		return true // no assignment below has max index nr−1
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
			if f.eff.PrefixChecks++; f.eff.PrefixChecks%prefixPollEvery == 0 && f.ctx.Err() != nil {
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

// root closes level 0 at period for the round being walked: every dependency
// edge at coefficient nr−1.
func (f *PrefixFilter) root(period int) {
	f.period = period
	e := f.e
	for x := range e.statCoeff {
		e.statCoeff[x] = f.nr - 1
	}
	f.live = e.orderRoot(period, e.k+1)
	f.forced = e.orderChecked(period)
}

// push derives level pos+1 from level pos with stage i at index v: the edges
// into i get their real lag, the edges out of it lag v. It reports false when
// the level admits no solution — the subtree is cut.
func (f *PrefixFilter) push(pos, i, v int) bool {
	if !f.live {
		return false
	}
	e := f.e
	kk := e.k * e.k
	D := e.ordMat[(pos+1)*kk : (pos+2)*kk]
	copy(D, e.ordMat[pos*kk:(pos+1)*kk])
	for _, pr := range f.preds[i] {
		if !e.orderRaise(D, pr, i, e.times[pr]-(f.assign[pr]-v)*f.period) {
			return false
		}
	}
	for _, s := range e.statTo[e.statHead[i]:e.statHead[i+1]] {
		if !e.orderRaise(D, i, s, e.times[i]-v*f.period) {
			return false
		}
	}
	if f.forced {
		ok, _, _ := e.orderPropagate(D)
		return ok
	}
	return true
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
