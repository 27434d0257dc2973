// Package repetend implements the repetend construction phase of Tessel
// (paper §IV-B): enumerating micro-batch index assignments for one full set
// of blocks under the pruning Properties 4.1/4.2, solving each candidate
// instance, and evaluating its steady-state period with the tight
// inter-repetend compaction of Figure 6.
//
// A repetend is one full set of the placement's K blocks with a micro-batch
// index r_i assigned to each stage i (Equation 3). Consecutive repetend
// instances shift every micro index by one and every start time by the
// period. Dependencies between stages with equal indices stay inside an
// instance; a dependency i→j with lag L = r_i − r_j ≥ 1 crosses L instance
// boundaries and constrains the period: s_i + t_i ≤ s_j + L·P.
//
// For a fixed per-device execution order, the minimum feasible period is
// the smallest P for which the difference-constraint system
//
//	s_j − s_i ≥ t_i             (intra-instance dependency)
//	s_v − s_u ≥ t_u             (u immediately precedes v on a device)
//	s_j − s_i ≥ t_i − L·P       (cross-instance dependency, lag L)
//	s_first − s_last ≥ t_last − P  (device span E_d ≤ P)
//
// has a solution, found by binary search over P with Bellman-Ford
// feasibility checks. Orders come from a minimum-makespan instance solve
// and are then improved by adjacent-swap local search on the period.
//
// A sweep hands Solve an incumbent period, and most assignments are discarded
// against it. Three stages do that, each a proof the next one costs more to
// reach: the order-independent relaxation (one probe; holds for every order),
// the exact order check (ordercheck.go; decides whether any order reaches the
// bound, at any bound below the sequential ceiling), and — after the instance
// solve and local search — the period of the order actually found.
//
// The first two do not need the whole assignment. A PrefixFilter (prefix.go)
// runs them in relaxed form on the prefixes of the enumeration tree — each
// dependency path into a stage not fixed yet as one edge, its lags summed to
// the most they can total — and cuts a subtree where the prefix alone closes a
// positive cycle or leaves a same-device pair no order (in the last three
// levels, any order): a proof, for every assignment below at once, that Solve
// would discard it.
// A round too shallow for the pipeline fails at the root, before any index is
// fixed. What the filter lets through Solve judges as if there were no filter.
package repetend

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"tessel/internal/sched"
	"tessel/internal/solver"
)

// ErrInfeasible reports that no repetend exists for an assignment under the
// given memory constraints.
var ErrInfeasible = errors.New("repetend: infeasible")

// ErrPruned reports that Solve abandoned an assignment because its period
// provably cannot be ≤ SolveOptions.PeriodUpperBound. The assignment may
// still be feasible — it just cannot beat (or tie) the caller's incumbent.
var ErrPruned = errors.New("repetend: pruned by period bound")

// pruneError is the ErrPruned of one of Solve's prune stages. A sweep discards
// thousands of assignments per search and reads none of the messages, so the
// text is put together only if somebody asks for it.
type pruneError struct {
	rule  string // what was proven to exceed the bound
	bound int
}

func (e *pruneError) Error() string {
	return fmt.Sprintf("%v: %s > %d", ErrPruned, e.rule, e.bound)
}

func (e *pruneError) Is(target error) bool { return target == ErrPruned }

// ErrTruncated marks (by wrapping) a Solve error whose verdict was reached
// after a solver node or wall-clock budget ran out, so it is budget-degraded
// rather than proven. Callers surface it as a truncated search.
var ErrTruncated = errors.New("repetend: solver budget exhausted")

// Assignment maps each stage i to the micro-batch index r_i its block
// carries inside the repetend (Equation 3's n_i).
type Assignment []int

// Validate checks the assignment against placement p: correct length,
// indices in [0, nr), and Property 4.2 (for every dependency i→j,
// r_i ≥ r_j). nr ≤ 0 skips the range check.
func (a Assignment) Validate(p *sched.Placement, nr int) error {
	if len(a) != p.K() {
		return fmt.Errorf("assignment length %d != K %d", len(a), p.K())
	}
	for i, r := range a {
		if r < 0 || (nr > 0 && r >= nr) {
			return fmt.Errorf("stage %d: micro index %d outside [0,%d)", i, r, nr)
		}
	}
	for i, succs := range p.Deps {
		for _, j := range succs {
			if a[i] < a[j] {
				return fmt.Errorf("property 4.2 violated: dep %d→%d with r_%d=%d < r_%d=%d", i, j, i, a[i], j, a[j])
			}
		}
	}
	return nil
}

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

// Compare orders assignments lexicographically by micro index, shorter
// prefixes first — the canonical order of the per-stage index vector. The
// sweep uses it to break period ties deterministically: among repetends
// with equal periods the canonically smallest assignment wins, so search
// results do not depend on worker scheduling.
func (a Assignment) Compare(b Assignment) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Enumerate yields every canonical assignment of micro indices in [0, nr)
// satisfying Property 4.2, with min index 0 and max index exactly nr−1 (so
// sweeping nr from 1 upward visits each assignment once). Stages are fixed
// in topological order; values are tried from the upper bound downward,
// which reaches pipeline-like assignments (consecutive drops of one) early.
// yield returning false stops the enumeration. The return value reports
// whether enumeration ran to completion (false when stopped by yield). This
// is the walk of a PrefixFilter (prefix.go) with nothing cut.
func Enumerate(p *sched.Placement, nr int, yield func(Assignment) bool) (bool, error) {
	if nr <= 0 {
		return false, fmt.Errorf("nr must be positive, got %d", nr)
	}
	f, err := newPrefixFilter(p)
	if err != nil {
		return false, err
	}
	f.nr, f.yield = nr, yield
	return f.walk(0, 0), nil
}

// Count returns the number of canonical assignments Enumerate would yield.
func Count(p *sched.Placement, nr int) (int, error) {
	n := 0
	if _, err := Enumerate(p, nr, func(Assignment) bool { n++; return true }); err != nil {
		return 0, err
	}
	return n, nil
}

// EntryMemory returns the per-device memory in use when instance k of the
// repetend begins: for each stage i, the r_i + k earlier micro-batches of
// that stage have already started, each contributing Mem. k = 0 is the entry
// of the repetend (§IV-B, "infer the memory usage at the entry of the
// repetend"); k = R, after R instances, is the entry of the cooldown.
func EntryMemory(p *sched.Placement, a Assignment, k int) []int {
	mem := make([]int, p.NumDevices)
	for i := range p.Stages {
		for _, d := range p.Stages[i].Devices {
			mem[d] += (a[i] + k) * p.Stages[i].Mem
		}
	}
	return mem
}

// Repetend is a solved repetend: the assignment, the relative start time of
// each stage's block within one instance, and the steady-state period. Solve
// reports the work behind it through SolveOptions.Effort.
type Repetend struct {
	// P is the placement the repetend schedules.
	P *sched.Placement
	// Assign is the micro index per stage.
	Assign Assignment
	// NR is the number of micro-batches the construction drew from
	// (1 + max assigned index).
	NR int
	// Starts is the relative start time per stage within one instance
	// (minimum 0); instance k starts stage i at Starts[i] + k·Period.
	Starts []int
	// Period is t_R, the steady-state time between consecutive instances
	// under tight compaction (Figure 6b).
	Period int
	// Truncated is true when the instance makespan solve exhausted a node
	// or wall-clock budget and fell back to its incumbent, so Starts (and
	// the derived period) are budget-degraded rather than proven optimal.
	Truncated bool
}

// Effort is the work Solve calls did, whatever their outcome: an assignment
// pruned after its instance solve and local search has spent the same nodes
// and probes as one that survives. core.Stats embeds Effort, so a search
// reports each field under its name, summed over every call of the sweep, and
// a cache snapshot stores it under the same name.
type Effort struct {
	// SolverNodes is the number of branch-and-bound nodes expanded by the
	// repetend instance solves — the budget-independent measure of sweep
	// effort that incumbent pruning is meant to shrink. It covers every solve
	// that ran, including those of assignments pruned afterwards.
	SolverNodes int64
	// SolverMemoHits is the number of those nodes pruned by the solver's
	// dominance memo, the per-search effectiveness measure of the
	// arena-backed memoization.
	SolverMemoHits int64
	// PeriodProbes is the number of period-feasibility probes (one
	// difference-constraint fixpoint computation each) the repetend
	// evaluations ran — across the order-independent relaxation checks, the
	// minPeriod binary searches, and local search — and the binary searches of
	// RelaxedPeriod a sweep runs. Like SolverNodes, it sums over every
	// evaluation that ran: the single probe of a candidate the relaxation
	// discards counts too.
	PeriodProbes int64
	// PeriodRelaxations is the number of successful distance tightenings
	// inside those probes, the one that closes a positive cycle included —
	// the budget-independent effort measure of the period machinery (the
	// analogue of SolverNodes for the incremental period engine). An
	// infeasible probe ends at the first cycle in its longest-path tree, so
	// on memory-capped placements, where most probes answer "no", it reads
	// about a third of what it did when a probe ran until a relaxation chain
	// reached K edges (x8m4 at Workers 1: 157,373 against 489,447).
	PeriodRelaxations int64
	// LocalSearchSwaps is the number of candidate adjacent-order swaps the
	// repetend local search applied and evaluated (kept or undone).
	LocalSearchSwaps int64
	// The exact order check is Solve's second prune stage and the prefix
	// filter's last levels'. OrderChecks is the number of checks run, at a
	// leaf — every Solve call with a bound, in either sweep pass — or a
	// prefix, and OrderPruned how many proved the bound out of reach
	// of every per-device order: a leaf discarded before its instance solve
	// (inside core.Stats.Pruned) or a prefix cut (inside PrefixCuts).
	// OrderNodes is the branch nodes the checks expanded beyond forced-pair
	// propagation. Omitted from JSON when zero.
	OrderChecks int64 `json:",omitempty"`
	OrderPruned int64 `json:",omitempty"`
	OrderNodes  int64 `json:",omitempty"`
	// The prefix filter's work, reported by PrefixFilter.Effort and by no Solve
	// call: PrefixChecks is the enumeration-tree nodes it tested on the way to
	// the leaves, PrefixCuts the subtrees it cut there; a round whose root
	// already fails — no index fixed — counts neither. The assignments under
	// a cut are proven out of the incumbent's reach in one go, no Solve call
	// sees them, and they appear in neither core.Stats.Assignments nor Pruned.
	// Omitted from JSON when zero, as the order counters are.
	PrefixChecks int64 `json:",omitempty"`
	PrefixCuts   int64 `json:",omitempty"`
}

// Add accumulates o into e.
func (e *Effort) Add(o Effort) {
	e.SolverNodes += o.SolverNodes
	e.SolverMemoHits += o.SolverMemoHits
	e.PeriodProbes += o.PeriodProbes
	e.PeriodRelaxations += o.PeriodRelaxations
	e.LocalSearchSwaps += o.LocalSearchSwaps
	e.OrderChecks += o.OrderChecks
	e.OrderPruned += o.OrderPruned
	e.OrderNodes += o.OrderNodes
	e.PrefixChecks += o.PrefixChecks
	e.PrefixCuts += o.PrefixCuts
}

// SolveOptions configures repetend solving.
type SolveOptions struct {
	// Memory is the per-device capacity (0 means unbounded).
	Memory int
	// SolverNodes / SolverTimeout bound the instance makespan solve.
	SolverNodes   int64
	SolverTimeout time.Duration
	// PeriodUpperBound, when positive, is an incumbent period held by the
	// caller: only repetends with Period ≤ PeriodUpperBound are useful, and
	// Solve returns ErrPruned as soon as it proves the assignment cannot
	// reach the bound. The bound is inclusive — candidates that tie the
	// incumbent still solve fully, so a sweep can break ties canonically
	// regardless of the order in which workers publish improvements.
	//
	// A Solve result never depends on the bound it ran under: the bound only
	// decides whether a result is returned at all — by proofs that hold for
	// *every* per-device order, or by the period of the order found — so the
	// period/starts of an un-pruned assignment are identical to an unbounded
	// solve, which is what keeps incumbent-pruned sweeps deterministic.
	PeriodUpperBound int
	// Effort, when non-nil, accumulates the work of every Solve call made
	// with these options, on every return path — pruned, infeasible and
	// cancelled calls included. Not safe for concurrent calls: a sweep gives
	// each worker its own.
	Effort *Effort
}

// instanceTasks builds the task system of one repetend instance: one task per
// stage in stage order, with dependencies restricted to lag-zero edges
// (cross-lag blocks belong to different micro-batches and are independent
// within the instance, Equation 2). The solver's traversal, and with it the
// per-device orders and the schedule bytes, follows the task order, so stage
// order — not BuildTasks' (micro, stage) order — is part of what Solve
// returns and stays fixed.
func instanceTasks(p *sched.Placement, a Assignment) []solver.Task {
	tasks := make([]solver.Task, p.K())
	for i := range tasks {
		st := &p.Stages[i]
		tasks[i] = solver.Task{
			ID:      sched.Block{Stage: i, Micro: a[i]},
			Time:    st.Time,
			Mem:     st.Mem,
			Devices: st.Devices,
		}
	}
	for i, succs := range p.Deps {
		for _, j := range succs {
			if a[i] == a[j] {
				tasks[j].Preds = append(tasks[j].Preds, i)
			}
		}
	}
	return tasks
}

// Solve constructs and evaluates the repetend for one assignment. It
// returns ErrInfeasible (wrapped) when memory constraints rule it out,
// ErrPruned when PeriodUpperBound proves the assignment cannot beat the
// caller's incumbent, and ctx's error when the context is cancelled
// mid-solve. Budget-degraded verdicts additionally wrap ErrTruncated.
//
// Against a bound B the assignment passes three prune stages in order:
//
//  1. The relaxation — dependency edges plus device-window edges, one SPFA
//     probe — proves that no per-device order has period ≤ B. It is a
//     relaxation: passing it proves nothing.
//  2. The order check, at every positive B below the sequential ceiling:
//     decides exactly whether some per-device order has period ≤ B, memory
//     cap aside. "No" prunes; "yes", or running into its node cap, goes on.
//     Far above the lower bound it still pays: the unaimed pass solves
//     against a bound just under its best, out of most leaves' reach.
//  3. The pipeline proper: instance solve, minPeriod, local search, and
//     period > B at the end. This judges one order, found heuristically, so
//     it can discard an assignment stage 2 let through — never the reverse.
//
// Stages 1 and 2 only ever return earlier what stage 3 would have returned:
// whether an assignment survives, and with what Starts, is the same with
// either of them removed. A sweep runs both ahead of Solve as well, on
// prefixes (PrefixFilter): an assignment under one of its cuts is one that
// Solve discards here, so it never gets as far as this call and its absence
// changes nothing either.
func Solve(ctx context.Context, p *sched.Placement, a Assignment, opts SolveOptions) (*Repetend, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := a.Validate(p, 0); err != nil {
		return nil, err
	}
	mem := opts.Memory
	if mem == 0 {
		mem = sched.Unbounded
	}
	entry := EntryMemory(p, a, 0)
	for d, m := range entry {
		if m > mem {
			return nil, fmt.Errorf("%w: entry memory %d on device %d exceeds %d", ErrInfeasible, m, d, mem)
		}
	}
	eng := periodEngines.Get().(*periodEngine)
	var eff Effort
	defer func() {
		if opts.Effort != nil {
			eff.PeriodProbes, eff.PeriodRelaxations, eff.LocalSearchSwaps = eng.probes, eng.relaxations, eng.swaps
			eff.OrderNodes = eng.ordNodes
			opts.Effort.Add(eff)
		}
		periodEngines.Put(eng)
	}()
	eng.bind(p, a, entry, mem)
	// Per-device memory must net to zero per instance or the steady state
	// drifts without bound.
	if mem != sched.Unbounded && eng.driftDev >= 0 {
		return nil, fmt.Errorf("%w: device %d memory nets %+d per instance", ErrInfeasible, eng.driftDev, eng.driftNet)
	}
	bound := opts.PeriodUpperBound
	if bound > 0 && (eng.workLowerBound() > bound || !eng.relaxedFeasible(bound)) {
		// The order-independent bounds already rule the incumbent out: no
		// per-device order can rescue this assignment, so skip the
		// expensive instance solve entirely.
		return nil, &pruneError{"period lower bound", bound}
	}
	if eng.orderChecked(bound) {
		// Stage 2: no instance solve for a leaf no order can bring to bound.
		eff.OrderChecks = 1
		if eng.orderCheck(bound) == orderInfeasible {
			eff.OrderPruned = 1
			return nil, &pruneError{"period of every per-device order", bound}
		}
	}
	// Minimum-makespan instance solve to obtain per-device orders.
	res, err := solver.Solve(ctx, instanceTasks(p, a), solver.Options{
		NumDevices: p.NumDevices,
		Memory:     mem,
		InitialMem: entry,
		MaxNodes:   opts.SolverNodes,
		Timeout:    opts.SolverTimeout,
	})
	eff.SolverNodes, eff.SolverMemoHits = res.Nodes, res.MemoHits
	if err != nil {
		return nil, err
	}
	if !res.Feasible {
		if !res.Optimal {
			return nil, fmt.Errorf("%w: no instance schedule within memory (%w)", ErrInfeasible, ErrTruncated)
		}
		return nil, fmt.Errorf("%w: no instance schedule within memory", ErrInfeasible)
	}
	r := &Repetend{
		P:         p,
		Assign:    a.Clone(),
		NR:        maxOf(a) + 1,
		Truncated: !res.Optimal,
	}
	eng.setOrdersFromStarts(res.Starts)
	period, status := eng.minPeriod(0) // unbounded: local search starts from the order's true period
	if status == periodInfeasible {
		return nil, fmt.Errorf("repetend: period repair failed for a feasible order")
	}
	eng.bestStarts = eng.appendStarts(eng.bestStarts)
	period = eng.localSearch(ctx, period)
	r.Starts = append([]int(nil), eng.bestStarts...)
	r.Period = period
	if bound > 0 && r.Period > bound {
		return nil, &pruneError{"period after local search", bound}
	}
	return r, nil
}

// RelaxedPeriod returns the least bound at which Solve's first prune stage
// lets a through under memory (0 = unbounded): the smallest period the
// relaxation admits, no less than the device-work lower bound. Solve against
// any bound below it returns ErrPruned before its instance solve, and no
// repetend of a has a smaller period. It is one more than the sum of all
// stage times — above every period a Solve can return — when not even that
// sum passes, and math.MaxInt when a's entry memory or the per-device memory
// drift already makes Solve return ErrInfeasible. a must be a valid assignment of p. The
// probes it runs are added to eff when eff is non-nil.
func RelaxedPeriod(p *sched.Placement, a Assignment, memory int, eff *Effort) int {
	if memory == 0 {
		memory = sched.Unbounded
	}
	entry := EntryMemory(p, a, 0)
	for _, m := range entry {
		if m > memory {
			return math.MaxInt
		}
	}
	eng := periodEngines.Get().(*periodEngine)
	defer periodEngines.Put(eng)
	eng.bind(p, a, entry, memory)
	if memory != sched.Unbounded && eng.driftDev >= 0 {
		return math.MaxInt
	}
	lo, hi := eng.workLowerBound(), eng.hiSum
	switch {
	case eng.relaxedFeasible(lo):
		hi = lo
	case !eng.relaxedFeasible(hi):
		hi++
	default:
		// Feasibility is monotone in the period: the least feasible one lies in
		// (lo, hi].
		for lo++; lo < hi; {
			if mid := (lo + hi) / 2; eng.relaxedFeasible(mid) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
	}
	if eff != nil {
		eff.PeriodProbes += eng.probes
		eff.PeriodRelaxations += eng.relaxations
	}
	return hi
}

func maxOf(a Assignment) int {
	m := 0
	for _, v := range a {
		if v > m {
			m = v
		}
	}
	return m
}

func normalize(starts []int) {
	if len(starts) == 0 {
		return
	}
	min := starts[0]
	for _, s := range starts[1:] {
		if s < min {
			min = s
		}
	}
	for i := range starts {
		starts[i] -= min
	}
}

// Schedule returns the instance-0 schedule (relative time, assigned micros).
func (r *Repetend) Schedule() *sched.Schedule { return r.Unroll(1) }

// Unroll returns k consecutive instances: instance j shifts every start by
// j·Period and every micro index by j. The items come out in (Start, Stage,
// Micro) order; see AppendUnroll.
func (r *Repetend) Unroll(k int) *sched.Schedule {
	return &sched.Schedule{P: r.P, Items: r.AppendUnroll(make([]sched.Item, 0, max(k, 0)*len(r.Starts)), k, 0)}
}

// AppendUnroll appends to dst the items of Unroll(k) with every start moved
// by at, and returns the extended slice. They come out in (Start, Stage,
// Micro) order with no sort: stage i's lie in period windows ⌊Starts[i]/P⌋ + j
// at offset Starts[i] mod P, so the walk goes window by window, each in
// (offset, stage) order, and jumps over windows that hold no item — its work
// follows the items, never the starts. A Period below 1, which no repetend
// has, gets instance after instance.
func (r *Repetend) AppendUnroll(dst []sched.Item, k, at int) []sched.Item {
	K, P := len(r.Starts), r.Period
	if k <= 0 || K == 0 || P < 1 {
		for j := 0; j < k; j++ {
			for i, st := range r.Starts {
				dst = append(dst, sched.Item{Block: sched.Block{Stage: i, Micro: r.Assign[i] + j}, Start: st + j*P + at})
			}
		}
		return dst
	}
	scratch := make([]int, 3*K)
	first, off, order := scratch[:K], scratch[K:2*K], scratch[2*K:]
	for i, st := range r.Starts {
		first[i], off[i], order[i] = st/P, st%P, i
		if off[i] < 0 {
			first[i], off[i] = first[i]-1, off[i]+P
		}
	}
	//tessel:totalorder the stage index breaks every tie
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(off[a], off[b]), cmp.Compare(a, b)) })
	// Window w holds instance w − first[i] of stage i when that is in [0, k).
	// Windows are compared by difference, which stays exact past MaxInt.
	for w, end := slices.Min(first), len(dst)+k*K; len(dst) < end; w++ {
		next, n := w, len(dst) // next: the nearest first window after w
		for _, i := range order {
			if j := w - first[i]; j >= 0 && j < k {
				dst = append(dst, sched.Item{Block: sched.Block{Stage: i, Micro: r.Assign[i] + j}, Start: w*P + off[i] + at})
			} else if j < 0 && (next == w || first[i] < next) {
				next = first[i]
			}
		}
		if len(dst) == n { // jump to a window that holds items, if any
			if next == w {
				break
			}
			w = next - 1
		}
	}
	return dst
}

// SteadyBubbleRate returns the steady-state bubble rate of the repetend:
// 1 − Σ_d work_d / (D·Period).
func (r *Repetend) SteadyBubbleRate() float64 {
	if r.Period == 0 {
		return 0
	}
	total := 0
	for d := 0; d < r.P.NumDevices; d++ {
		total += r.P.DeviceWork(sched.DeviceID(d))
	}
	return 1 - float64(total)/float64(r.P.NumDevices*r.Period)
}
