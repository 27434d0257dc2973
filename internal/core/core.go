// Package core implements Tessel's schedule search (paper Algorithm 1 and
// §IV): the sweep over repetend sizes N_R and micro-batch index assignments,
// the lazy-search optimization of §V, schedule completion with time-optimal
// warmup and cooldown phases (§IV-C), and the extension of the repetend to
// any number of micro-batches.
//
// The sweep is bound-pruned: every assignment is solved against the best
// completion-verified period found before it was handed on
// (repetend.SolveOptions.PeriodUpperBound) — one less when it sorts after the
// best assignment, which it could then displace only on a strictly smaller
// period — so an improvement prunes the candidates of every later assignment
// and N_R round. Pruning only ever discards assignments that provably cannot
// displace the best. One goroutine, the one that called Search, decides
// everything: it walks the enumeration, hands subtrees of it to a pool of
// solver goroutines that walk and solve them, and judges their leaves in
// enumeration order, with canonical tie-breaking — what a sequential sweep
// decides — so the returned schedule is byte-identical for every Workers
// setting (assuming solver budgets are not exhausted — wall-clock budgets
// make individual solves timing-dependent).
//
// The sweep runs in up to two passes over the same N_R loop. Algorithm 1
// stops at the first repetend that reaches the device-work lower bound, and
// most placements have one, so the first pass presets the incumbent to that
// bound: from the first assignment on, only candidates that can reach it get
// past the order-independent relaxation, and of those only the ones for which
// some per-device order does reach it get past the exact order check
// (repetend.Solve's second prune stage, run against every job's bound) to an
// instance solve. The first assignment in enumeration order that reaches the
// bound and completes is the winner either way — everything the preset
// discards has a larger period and could never have displaced it. When no
// assignment reaches the bound (memory caps usually), the incumbent is cleared
// and the loop runs again unaimed.
//
// The unaimed pass returns the smallest period and, among its holders, the
// canonically smallest assignment, whatever order it meets them in — so it
// meets them best-first. It collects a round's leaves in blocks of up to
// leafBlockCap, gives each its relaxation bound (repetend.RelaxedPeriod: the
// least bound Solve's first prune stage lets it through), and hands each block
// out by increasing bound, canonical order among equals. A leaf whose bound
// exceeds the bound its job would get is not solved — Solve would only have
// pruned it at the relaxation. Every job with a bound runs the order check
// first, so a leaf no per-device order brings under the best costs no
// instance solve either. At most Workers jobs are out and unfinished at a
// time, so each goes out against the freshest incumbent. On x8m4 at Workers 1
// that leaves 47 of 288 leaves to Solve, the rest proven unable to win, and 35
// of the 46 checked among them end at the check.
//
// In the first pass most assignments never become one. The walk goes through
// the enumeration tree with a repetend.PrefixFilter at the lower bound, and a
// prefix whose already-fixed indices rule the bound out for every completion
// cuts its whole subtree. What is left is solved and judged as if nothing had
// been cut: a cut discards what repetend.Solve would have discarded one by
// one. The second pass walks every canonical assignment of a round.
//
// All entry points take a context.Context and honor it end-to-end: the
// enumeration, every repetend solve and the completion solves all poll the
// same context, so cancelling it (or hitting its deadline) stops the whole
// sweep promptly and Search returns ctx's error; no solve outlives the round
// that handed it on. The per-solve budgets (SolverNodes, SolverTimeout) remain
// soft: exhausting one degrades that solve to its incumbent and the search
// continues.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"tessel/internal/faultpoint"
	"tessel/internal/repetend"
	"tessel/internal/sched"
	"tessel/internal/solver"
)

// Default budgets. The schedule problem is NP-hard; budgets keep individual
// solver calls bounded while the search still reaches the lower bound on the
// paper's placements.
const (
	// DefaultMaxNR caps the repetend micro-batch sweep when memory does not
	// bound it first (Figure 11 sweeps N_R up to 8).
	DefaultMaxNR = 8
	// DefaultMaxAssignments caps the assignments a sweep hands its workers
	// per N_R.
	DefaultMaxAssignments = 100000
	// DefaultSolverNodes bounds each branch-and-bound solve.
	DefaultSolverNodes = 400000
	// MaxNRLimit is the largest MaxNR a search accepts: the sums of the period
	// engine and the order check are proven free of overflow for N_R up to
	// 2^18 (see sched.MaxStageTime), and no further.
	MaxNRLimit = 1 << 18
)

// Options configures a Search call. The zero value searches with unbounded
// memory, default budgets, lazy search enabled, and a final schedule of
// 3·N_R micro-batches.
type Options struct {
	// Memory is the per-device capacity M (0 = unbounded).
	Memory int
	// N is the number of micro-batches of the final schedule. 0 defaults to
	// 3·N_R of the best repetend. If 0 < N < N_R the search falls back to a
	// direct time-optimal solve of the whole problem.
	N int
	// MaxNR caps the repetend sweep; 0 uses min(MaxInflight, DefaultMaxNR).
	// Above MaxNRLimit Search refuses it.
	MaxNR int
	// MaxAssignments caps, per N_R, the leaves the sweep walks (0 =
	// DefaultMaxAssignments), whether they are then solved or not; those
	// under a prefix cut are not among them, so a first-pass search that runs
	// into the cap has seen at least as far into the round as the cap counts.
	// Leaves count in enumeration order, the same for every Workers setting.
	MaxAssignments int
	// SolverNodes bounds each exact solve (0 = DefaultSolverNodes).
	SolverNodes int64
	// SolverTimeout bounds each exact solve in wall time (0 = none). It is a
	// soft per-solve budget: exhausting it keeps that solve's incumbent and
	// lets the search continue. Hard cancellation of the whole search is the
	// job of the context passed to Search.
	SolverTimeout time.Duration
	// DisableLazy turns off the lazy-search optimization (§V): warmup and
	// cooldown are then solved time-optimally for every improving repetend
	// instead of once at the end (the Figure 10(b) ablation).
	DisableLazy bool
	// Workers sets the number of solver goroutines per N_R round (0 =
	// GOMAXPROCS). They walk and solve: the goroutine that called Search judges
	// their results in enumeration order and breaks period ties by the
	// canonically smallest assignment, so the chosen repetend and the returned
	// schedule are identical for every Workers setting. The effort counters
	// of Stats are not: they move with Workers, and from run to run even at
	// Workers 1 (see sweep.round for which of them repeat).
	Workers int
}

// PhaseDurations records where search time went (Figure 10(a)).
type PhaseDurations struct {
	Warmup   time.Duration
	Repetend time.Duration
	Cooldown time.Duration
}

// Stats reports search effort.
type Stats struct {
	// Assignments is the number of index assignments the prefix filter let
	// through to the sweep — the leaves walked, solved or not, not the leaves
	// of the enumeration tree: what lies under a cut (PrefixCuts) is counted
	// nowhere, nor are the first pass's leaves past the winner. Summed — like
	// every effort counter below — over both sweep passes when the lower-bound
	// pass found nothing and the unaimed pass ran too.
	Assignments int
	// Solved is the number of repetend instances solved to a period within
	// the bound of their job.
	Solved int
	// Pruned is the number of walked assignments abandoned against the
	// incumbent period — before their instance solve (the order-independent
	// relaxation, or the exact order check), or after it and local search. The
	// prefix filter takes most of the first kind away before they are
	// assignments at all; in the unaimed pass the relaxation bound takes them
	// before they are solved, with no Solve call.
	Pruned int
	// Improved counts strict period improvements.
	Improved int
	// WarmupNodes and CooldownNodes are the solver nodes of the completion
	// solves, which SolverNodes leaves out: the lazy gate's check of every
	// repetend that would become the best, and the final completion's
	// time-optimal solves (below N_R, its whole-problem solve counts as
	// warmup). A solve the completion template replays adds none.
	WarmupNodes, CooldownNodes int64
	// Effort is the work of every repetend solve and of the prefix filter,
	// summed over the sweep; its counters read as Stats fields (SolverNodes,
	// OrderPruned, …) and encode to JSON in this place, unnested.
	repetend.Effort
	// EarlyExit is true when the search hit the device-work lower bound and
	// stopped (Algorithm 1 lines 19–20).
	EarlyExit bool
	// Truncated is true when an enumeration or solver budget was exhausted
	// anywhere in the search — assignment enumeration, a repetend instance
	// solve, or a completion solve — so the result is budget-degraded
	// rather than proven. A leaf the exact order check prunes runs no
	// instance solve, so it cannot mark the search truncated, though the
	// solve it saves might have run out of nodes.
	Truncated bool
	// NRSwept is the largest N_R the sweep reached.
	NRSwept int
	// Phase breaks the search time down by phase.
	Phase PhaseDurations
	// Total is the wall-clock search time.
	Total time.Duration
}

// NodesPerSec is the repetend-phase solver node throughput: branch-and-
// bound nodes expanded per second of repetend-solve wall time. Zero when
// no repetend solve ran.
func (s Stats) NodesPerSec() float64 {
	if s.Phase.Repetend <= 0 {
		return 0
	}
	return float64(s.SolverNodes) / s.Phase.Repetend.Seconds()
}

// Result is a completed Tessel search.
type Result struct {
	// Placement is the input operator placement strategy.
	Placement *sched.Placement
	// Repetend is the best repetend found.
	Repetend *repetend.Repetend
	// LowerBound is max_d of per-device work — the best possible period.
	LowerBound int
	// BubbleRate is the steady-state bubble rate of the repetend.
	BubbleRate float64
	// N is the number of micro-batches in the final schedule.
	N int
	// Full is the schedule of exactly N micro-batches in absolute time. Its
	// phases are not kept apart: Repetend.Assign places each block in the
	// warmup, the unrolled repetend or the cooldown (Equations 5–6). Only a
	// result of ExtendParts may leave it nil; AppendSchedule writes every
	// result's schedule.
	Full *sched.Schedule
	// Makespan is Full's completion time.
	Makespan int
	// Stats reports search effort.
	Stats Stats
	// tmpl memoizes the phase solves of this result's completions, so that
	// Extend re-solves nothing it has solved before, and holds the
	// certificate that lets Extend copy instead (template.go).
	tmpl template
	// parts, when Full is nil, is the certificate this result's schedule is
	// composed from (ExtendParts).
	parts *certificate
}

// AppendSchedule appends the result's schedule as sched.AppendSchedule
// writes Full at depth. A result of ExtendParts that has no Full is written
// from its certificate's parts — n0's warmup, the body unrolled into a
// pooled scratch array, n0's cooldown moved by N − n0 — by
// sched.AppendMerged, which writes the bytes of their merge without building
// it. A result with neither is an error.
func (res *Result) AppendSchedule(dst []byte, depth int) ([]byte, error) {
	c := res.parts
	if res.Full != nil || c == nil {
		return sched.AppendSchedule(dst, res.Full, depth)
	}
	at := c.at(res.Repetend, res.N)
	buf := unrollBufs.Get().(*[]sched.Item)
	body, cool := at.unroll((*buf)[:0], res.Repetend, res.N-c.n0)
	dst = sched.AppendMerged(dst, res.Placement, depth, at.warm, body, cool)
	if cap(body) <= maxPooledUnroll {
		*buf = body[:0]
		unrollBufs.Put(buf)
	}
	return dst, nil
}

// unrollBufs recycles the arrays AppendSchedule unrolls a certified body and
// its moved cooldown into. One that grew past maxPooledUnroll items (n·K in
// the tens of thousands) is left to the collector instead of pinned.
var unrollBufs = sync.Pool{New: func() any { return new([]sched.Item) }}

const maxPooledUnroll = 1 << 14 // 384 KB of items

// Resolve returns o with its defaults filled in as Search reads them:
// Memory 0 → sched.Unbounded, MaxNR ≤ 0 → MaxInflight(p, Memory),
// MaxAssignments 0 → DefaultMaxAssignments and SolverNodes 0 →
// DefaultSolverNodes. Two spellings that resolve alike search alike, which
// is what the serving cache keys on.
func (o Options) Resolve(p *sched.Placement) Options {
	if o.Memory == 0 {
		o.Memory = sched.Unbounded
	}
	if o.MaxNR <= 0 {
		o.MaxNR = MaxInflight(p, o.Memory)
	}
	if o.MaxAssignments == 0 {
		o.MaxAssignments = DefaultMaxAssignments
	}
	if o.SolverNodes == 0 {
		o.SolverNodes = DefaultSolverNodes
	}
	return o
}

// MaxInflight returns the paper's CalMaxInflight: the largest number of
// concurrently in-flight micro-batches the memory capacity admits, derived
// from the per-device activation footprint of one micro-batch.
func MaxInflight(p *sched.Placement, memory int) int {
	if memory <= 0 || memory == sched.Unbounded {
		return DefaultMaxNR
	}
	inflight := DefaultMaxNR
	for d := 0; d < p.NumDevices; d++ {
		act := 0
		for i := range p.Stages {
			if p.Stages[i].Mem > 0 && p.Stages[i].OnDevice(sched.DeviceID(d)) {
				act += p.Stages[i].Mem
			}
		}
		if act == 0 {
			continue
		}
		if f := memory / act; f < inflight {
			inflight = f
		}
	}
	if inflight < 1 {
		inflight = 1
	}
	return inflight
}

// Search runs Algorithm 1 for placement p: it sweeps repetend sizes and
// index assignments — first aimed at the device-work lower bound, then, if
// nothing reaches it, unaimed (see the package comment) — keeps the repetend
// with the smallest steady-state period, completes warmup and cooldown
// phases, and extends the schedule to opts.N micro-batches. Cancelling ctx
// stops the sweep and every in-flight solve promptly and returns ctx's error.
func Search(ctx context.Context, p *sched.Placement, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.N < 0 {
		return nil, fmt.Errorf("core: micro-batch count must be non-negative, got %d", opts.N)
	}
	if opts.MaxNR > MaxNRLimit {
		return nil, fmt.Errorf("core: repetend size cap %d exceeds %d", opts.MaxNR, MaxNRLimit)
	}
	opts = opts.Resolve(p)
	//tessel:waive:determinism wall-clock feeds only the Stats.Total telemetry, never schedule bytes
	t0 := time.Now()
	res := &Result{
		Placement:  p,
		LowerBound: p.LowerBound(),
	}

	s := &sweep{ctx: ctx, opts: opts, res: res, solve: repetend.SolveOptions{
		Memory:        opts.Memory,
		SolverNodes:   opts.SolverNodes,
		SolverTimeout: opts.SolverTimeout,
	}}
	var err error
	if s.filter, err = repetend.NewPrefixFilter(p); err != nil {
		return nil, err
	}
	defer s.filter.Close()
	// Pass one prunes against the lower bound itself; pass two, with no
	// incumbent, runs only when pass one verified no repetend.
	if err := s.pass(res.LowerBound); err != nil {
		return nil, err
	}
	if s.best == nil {
		if err := faultpoint.Inject(faultpoint.CoreSweepFallback); err != nil {
			return nil, err
		}
		if err := s.pass(0); err != nil {
			return nil, err
		}
	}
	best := s.best
	if best == nil {
		return nil, fmt.Errorf("core: no feasible repetend for %s within memory %d and N_R ≤ %d", p.Name, opts.Memory, opts.MaxNR)
	}
	res.Repetend = best
	res.BubbleRate = best.SteadyBubbleRate()

	n := opts.N
	if n == 0 {
		n = 3 * best.NR
	}
	res.N = n
	if err := completeSchedule(ctx, res, best, n, opts, &res.tmpl); err != nil {
		return nil, err
	}
	res.Makespan = res.Full.Makespan()
	res.Stats.Total = time.Since(t0)
	return res, nil
}

// sweep is one Search's repetend sweep. Only the goroutine that called Search
// touches it; a round's solver goroutines see their jobs and nothing else.
type sweep struct {
	ctx    context.Context
	opts   Options
	res    *Result
	filter *repetend.PrefixFilter
	// walkers[i] is what the i-th solver goroutine of a round walks with.
	walkers []*repetend.PrefixFilter
	// solve is what every assignment is solved with; each job sets its
	// bound and effort on its own copy.
	solve repetend.SolveOptions
	// best is the best completion-verified repetend so far.
	best *repetend.Repetend
	// incumbent is the period candidates are pruned against: the device-work
	// lower bound while the first pass aims at it, afterwards the smallest
	// completion-verified period so far (0 = none yet). A job takes the value
	// it has when the job is handed on. It moves only after checkCompletion
	// passes: an unverified period could prune candidates that the failed
	// repetend never actually beats. (The lower bound needs no verifying: no
	// repetend beats it.)
	incumbent int
}

// pass runs the N_R loop once, pruning against aim (0 = unaimed), and stops
// early at the lower bound.
func (s *sweep) pass(aim int) error {
	s.incumbent = aim
	for nr := 1; nr <= s.opts.MaxNR && !s.res.Stats.EarlyExit; nr++ {
		s.res.Stats.NRSwept = nr
		if err := s.round(nr, aim); err != nil {
			return err
		}
	}
	return nil
}

// solveJob is one subtree (a leaf, unaimed) on its way through a solver
// goroutine. out carries each leaf's repetend (nil: none) once solved, so a
// winner is judged while the rest of its subtree is solved; the solver fills in
// the fields below out, then closes it, and the Search goroutine reads them.
type solveJob struct {
	sub   repetend.Subtree
	bound int // jobBound when the job was handed on
	out   chan *repetend.Repetend
	// What became of the leaves, counted as Stats counts it.
	solved, pruned int
	truncated      bool
	// panicked is a panic recovered inside the job: recover only works on the
	// panicking goroutine, so the solver keeps it and the Search goroutine
	// re-raises it, where the engine's structured-error recovery can convert
	// it.
	panicked any
	eff      repetend.Effort
	dur      time.Duration
}

// sweepSolveHook, when non-nil, runs on the solver goroutine that is about to
// walk a subtree, with its prefix and the context the walk will run under, for
// tests to hold a speculative job until the sweep is over.
var sweepSolveHook func(ctx context.Context, prefix repetend.Assignment, bound int)

// run walks the job's subtree with w under ctx and solves every leaf it yields,
// or skips the job once ctx has ended, and closes out.
func (j *solveJob) run(ctx context.Context, p *sched.Placement, w *repetend.PrefixFilter, ro repetend.SolveOptions) {
	defer close(j.out)
	if ctx.Err() != nil {
		return
	}
	//tessel:waive:determinism wall-clock feeds only the Stats.Phase.Repetend telemetry, never schedule bytes
	t0 := time.Now()
	defer func() {
		j.dur = time.Since(t0)
		j.panicked = recover()
	}()
	if sweepSolveHook != nil {
		sweepSolveHook(ctx, j.sub.Prefix(), j.bound)
	}
	// Solved after the walk, whose frames would otherwise sit under a solve's.
	var leaves []repetend.Assignment
	w.Walk(ctx, &j.sub, func(a repetend.Assignment) bool { leaves = append(leaves, a); return true })
	j.eff.Add(w.Effort())
	ro.PeriodUpperBound, ro.Effort = j.bound, &j.eff
	for _, a := range leaves {
		if ctx.Err() != nil {
			return
		}
		r, err := repetend.Solve(ctx, p, a, ro)
		if r != nil {
			j.solved++
		}
		if errors.Is(err, repetend.ErrPruned) {
			j.pruned++
		}
		j.truncated = j.truncated || r != nil && r.Truncated || errors.Is(err, repetend.ErrTruncated)
		j.out <- r
	}
}

// round walks round nr through the prefix filter at aim and hands subtrees to
// opts.Workers solver goroutines; the Search goroutine judges the jobs in
// hand-out order, each job's leaves in walk order, so it decides what a
// sequential sweep in that order decides. The aimed pass hands out the
// subtrees PrefixFilter.Split stops at, counts their leaves against
// MaxAssignments as it judges them, and stops at the first repetend that
// reaches the lower bound and completes (Algorithm 1 lines 19–20). The unaimed
// pass hands its leaves out best-first, a block at a time (handOutBlock): what
// it returns, the smallest period and among its holders the canonically
// smallest assignment, does not depend on the order.
//
// Only the effort counters (Solved, Pruned, SolverNodes, PeriodProbes, …)
// vary, with the number of solvers and from run to run even at Workers 1:
// past the aimed pass's winner, the job queued behind it is cancelled at a
// point that depends on timing. Over 40 k6 searches at Workers 1, SolverNodes
// read 815, 913 or 1,002, PeriodProbes 73–105 and LocalSearchSwaps 42–61. The
// unaimed pass has no winner to stop at, and at Workers 1 it has one job out
// at a time and lets it finish, so a search whose aimed pass finds nothing —
// every job of that pass runs to its end too — repeats its counters exactly
// at Workers 1; TestBestFirstFallbackEffort pins x8m4's and v6m4's.
//
// The solvers run under a context of the round's own, which ends with it:
// past the winner whatever is in flight can only be thrown away, and so is
// everything after an error or a panic. round returns only once every job it
// handed on has finished.
func (s *sweep) round(nr, aim int) (err error) {
	workers := s.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := s.res.Placement
	for len(s.walkers) < workers {
		s.walkers = append(s.walkers, s.filter.Walker())
	}
	ctx, end := context.WithCancel(s.ctx)
	// The aimed pass keeps aimedUnjudged·workers jobs unjudged, workers of them
	// running: the channel holds the rest, so a hand-out never blocks and the
	// head judgeHead waits on is always taken. Smaller can deadlock.
	jobs := make(chan *solveJob, (aimedUnjudged-1)*workers)
	// finished takes one signal per job a solver is done with, for the
	// unaimed pass, which keeps at most workers jobs unfinished.
	aimed, finished := aim > 0, make(chan struct{}, workers)
	for _, w := range s.walkers[:workers] {
		go func() {
			for j := range jobs {
				j.run(ctx, p, w, s.solve)
				if !aimed {
					finished <- struct{}{}
				}
			}
		}()
	}
	var queue []*solveJob // handed on and not yet judged, in hand-out order
	defer func() {
		end()
		close(jobs)
		var panicked any
		for _, j := range queue {
			s.account(j)
			if panicked == nil {
				panicked = j.panicked
			}
		}
		if panicked != nil {
			panic(panicked)
		}
	}()
	budget, over := s.opts.MaxAssignments, false // over: judged past the budget
	// count takes a walked leaf off the round's budget: false past it.
	count := func() bool {
		s.res.Stats.Assignments++
		if budget--; budget < 0 {
			s.res.Stats.Truncated, over = true, aimed
		}
		return budget >= 0
	}
	goesOn := func() bool { return err == nil && !s.res.Stats.EarlyExit && !over }
	// judgeHead judges the head job's leaves and takes it off once done,
	// waiting while more than keep jobs are queued; false ends the round.
	judgeHead := func(keep int) bool {
		for goesOn() && len(queue) > 0 {
			j, more := queue[0], true
			var r *repetend.Repetend
			if len(queue) > keep {
				r, more = <-j.out
			} else {
				select {
				case r, more = <-j.out:
				default:
					return true
				}
			}
			if !more {
				queue = queue[1:]
				s.account(j)
				if j.panicked != nil {
					panic(j.panicked)
				}
				continue
			}
			// The unaimed pass counted its leaves as it walked them.
			if (!aimed || count()) && r != nil {
				err = s.judge(r)
			}
		}
		return goesOn()
	}
	hand := func(sub repetend.Subtree, bound int) {
		// One buffered outcome: a one-leaf job never waits to be judged.
		j := &solveJob{sub: sub, bound: bound, out: make(chan *repetend.Repetend, 1)}
		jobs <- j
		queue = append(queue, j)
	}
	if aimed {
		ring, next := make([]repetend.Subtree, aimedUnjudged*workers), 0
		s.filter.Split(ctx, nr, aim, func(sub *repetend.Subtree) bool {
			if ctx.Err() != nil || !judgeHead(len(ring)-1) {
				return false
			}
			// The slot's last job was handed out len(ring) jobs ago: judged.
			slot := &ring[next%len(ring)]
			next++
			slot.Set(sub)
			hand(*slot, aim) // before the winner there is no best
			return true
		})
		s.res.Stats.Add(s.filter.Effort())
	} else {
		var block []leaf // walked, not yet handed out
		running := 0     // jobs handed out whose finished signal is not taken yet
		handOutBlock := func() bool {
			defer func() { block = block[:0] }()
			if bestFirstOn {
				//tessel:totalorder the leaves of a round are distinct assignments
				slices.SortFunc(block, func(x, y leaf) int { return cmp.Or(cmp.Compare(x.bound, y.bound), x.a.Compare(y.a)) })
			}
			for i := 0; i < len(block); {
				if ctx.Err() != nil || !judgeHead(math.MaxInt) {
					return false
				}
				l := block[i]
				jb := s.jobBound(l.a)
				switch {
				case bestFirstOn && jb > 0 && l.bound > jb:
					s.res.Stats.Pruned++
				case running == workers:
					<-finished
					running--
					continue
				default:
					hand(repetend.Leaf(nr, l.a), jb)
					running++
				}
				i++
			}
			// The next block goes out against everything this one found.
			return judgeHead(0)
		}
		s.filter.Enumerate(ctx, nr, aim, func(a repetend.Assignment) bool {
			if ctx.Err() != nil || !count() {
				return false
			}
			// A leaf with no relaxation bound is one Solve calls ErrInfeasible,
			// and like those it counts as neither solved nor pruned.
			if lb := repetend.RelaxedPeriod(p, a, s.opts.Memory, &s.res.Stats.Effort); lb < math.MaxInt {
				block = append(block, leaf{a, lb})
			}
			return len(block) < leafBlockCap || handOutBlock()
		})
		handOutBlock()
	}
	judgeHead(0)
	if err == nil {
		err = s.ctx.Err()
	}
	return err
}

// aimedUnjudged is how many jobs per solver the aimed pass keeps unjudged,
// the one running and the rest queued (the jobs channel of round is sized
// from it). A deeper lookahead slows small early-exit searches.
const aimedUnjudged = 2

// jobBound is the period a job for a is solved against: the incumbent, or one
// less than the best period when a sorts after the best assignment — a tie
// would not displace the best, so only a strictly smaller period can win.
// (The best is above the lower bound, or the sweep would have stopped, so the
// bound stays positive.)
func (s *sweep) jobBound(a repetend.Assignment) int {
	if b := s.best; b != nil && a.Compare(b.Assign) > 0 {
		return b.Period - 1
	}
	return s.incumbent
}

// bestFirstOn is written only by tests: false makes the unaimed pass hand its
// leaves out in the order the walk reaches them, unskipped, the reference the
// best-first order is compared against.
var bestFirstOn = true

// leafBlockCap is the most leaves the unaimed pass collects before it hands
// them out, so a round holds at most K·leafBlockCap ints of them.
const leafBlockCap = 4096

// leaf is a walked leaf of the unaimed pass — the walk yields each as a fresh
// copy — with its relaxation bound (repetend.RelaxedPeriod).
//
// Handed out by increasing bound, a block of them reaches its likely winners
// first, and a leaf is skipped when its bound exceeds the job bound it would
// get: Solve against that bound would return ErrPruned at the relaxation, so
// the skip changes the counters and nothing else. Among equal bounds the
// canonically smaller assignment goes first, the one that would win a tie.
type leaf struct {
	a     repetend.Assignment
	bound int
}

// judge folds a solved repetend into the sweep: it becomes the best on a
// strictly smaller period, or on an equal one with a canonically smaller
// assignment, once checkCompletion passes — checkCompletion runs here, on the
// Search goroutine, so phase timing stays consistent — and one at the lower
// bound is the early exit.
func (s *sweep) judge(r *repetend.Repetend) error {
	if b := s.best; b != nil && (r.Period > b.Period || r.Period == b.Period && r.Assign.Compare(b.Assign) >= 0) {
		return nil
	}
	ok, err := checkCompletion(s.ctx, s.res.Placement, r, s.opts, &s.res.Stats)
	if err != nil || !ok {
		return err
	}
	if s.best == nil || r.Period < s.best.Period {
		s.res.Stats.Improved++
		s.incumbent = r.Period
	}
	s.best = r
	if r.Period == s.res.LowerBound {
		s.res.Stats.EarlyExit = true
	}
	return nil
}

// account waits for a job to finish and adds its work to the search's
// counters.
func (s *sweep) account(j *solveJob) {
	for range j.out {
	}
	st := &s.res.Stats
	st.Add(j.eff)
	st.Phase.Repetend += j.dur
	st.Solved, st.Pruned = st.Solved+j.solved, st.Pruned+j.pruned
	st.Truncated = st.Truncated || j.truncated
}

// Extend rebuilds the warmup/body/cooldown composition of a completed
// search for a different number of micro-batches without re-running the
// repetend sweep — the schedule-generalization property of §III-C ("it is
// possible to extend the repetend schedule to accommodate any number of
// micro-batches"). Memory and solver budgets come from opts, which should
// normally match the original search.
//
// Below n0, the first count from which the completion is a pure
// translation (certificate, template.go), the warmup and cooldown solves go
// through res's completion template: the first completion — the search's
// own, or the first Extend of a result restored from a snapshot or a peer —
// runs them, and a later Extend that meets the same solver instances
// replays their solutions and unrolls, merges and validates. The first
// Extend to an n ≥ n0 certifies res: it runs that path at n0 and at
// n_c = n0 + N_R and, when n_c's schedule is the composition of n0's parts,
// keeps those parts on res. From then on an Extend to any n ≥ n0 under the
// same memory cap and node budget copies: n0's warmup, the unrolled body and
// n0's cooldown moved by n − n0 periods, merged in place, with no solve and
// no Validate. The result is byte-identical to a from-scratch completion
// every way. res may be shared between goroutines.
func Extend(ctx context.Context, res *Result, n int, opts Options) (*Result, error) {
	return extend(ctx, res, n, opts, false)
}

// ExtendParts is Extend for a caller that only encodes the schedule: a
// completion composed from res's certificate is left as its parts, with Full
// nil, and AppendSchedule writes it. Every other field, and every completion
// that is not composed from the certificate, is Extend's.
func ExtendParts(ctx context.Context, res *Result, n int, opts Options) (*Result, error) {
	return extend(ctx, res, n, opts, true)
}

// extend is Extend, and ExtendParts when parts is set.
func extend(ctx context.Context, res *Result, n int, opts Options, parts bool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if res == nil || res.Repetend == nil {
		return nil, fmt.Errorf("core: Extend needs a completed search result")
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: Extend needs a positive micro-batch count, got %d", n)
	}
	opts = opts.Resolve(res.Placement)
	out := &Result{
		Placement:  res.Placement,
		Repetend:   res.Repetend,
		LowerBound: res.LowerBound,
		BubbleRate: res.BubbleRate,
		N:          n,
	}
	c, err := certified(ctx, res, n, opts)
	switch {
	case err != nil:
		return nil, err
	case c != nil:
		if parts {
			out.parts = c
		} else {
			out.Full = c.extend(res.Placement, res.Repetend, n)
		}
		out.Makespan = c.makespan + (n-c.n0)*res.Repetend.Period
		out.Stats.Truncated = c.truncated
	default:
		if err := completeSchedule(ctx, out, res.Repetend, n, opts, &res.tmpl); err != nil {
			return nil, err
		}
		out.Makespan = out.Full.Makespan()
	}
	out.tmpl.memos.Store(res.tmpl.memos.Load())
	out.tmpl.cert.Store(res.tmpl.cert.Load())
	return out, nil
}

// warmupBlocks returns {B^n_i : n < r_i} (Equation 5).
func warmupBlocks(p *sched.Placement, a repetend.Assignment) []sched.Block {
	total := 0
	for _, ai := range a {
		total += ai
	}
	blocks := make([]sched.Block, 0, total)
	for i := range p.Stages {
		for n := 0; n < a[i]; n++ {
			blocks = append(blocks, sched.Block{Stage: i, Micro: n})
		}
	}
	return blocks
}

// cooldownBlocks returns {B^n_i : r_i + reps ≤ n < N} — Equation 6
// generalized from reps = 1 (N = N_R) to the extended schedule.
func cooldownBlocks(p *sched.Placement, a repetend.Assignment, reps, n int) []sched.Block {
	total := 0
	for _, ai := range a {
		total += max(n-reps-ai, 0)
	}
	blocks := make([]sched.Block, 0, total)
	for i := range p.Stages {
		for m := a[i] + reps; m < n; m++ {
			blocks = append(blocks, sched.Block{Stage: i, Micro: m})
		}
	}
	return blocks
}

// checkCompletion implements the lazy-search gate: when lazy search is on,
// it only asks the solver whether valid warmup and cooldown schedules exist
// (satisfiability); otherwise it solves them time-optimally — the two modes
// of §V. The cooldown is that of N = N_R, from the memory the warmup and one
// instance leave held. Neither check goes through a completion template, so
// the time-optimal arm (Figure 10(b)'s eager search) pays for every solve.
func checkCompletion(ctx context.Context, p *sched.Placement, r *repetend.Repetend, opts Options, stats *Stats) (bool, error) {
	for _, ph := range []phase{
		{blocks: warmupBlocks(p, r.Assign)},
		{blocks: cooldownBlocks(p, r.Assign, 1, r.NR), initMem: repetend.EntryMemory(p, r.Assign, 1), cooldown: true},
	} {
		_, _, _, err := solvePhase(ctx, p, ph, !opts.DisableLazy, opts, nil, stats)
		if errors.Is(err, errInfeasible) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// completeSchedule builds the final N-micro-batch schedule around the
// repetend: time-optimal warmup, R = N − N_R + 1 unrolled instances compacted
// against the warmup, and a time-optimal cooldown released by warmup and body
// finishes, merged and validated. Below N_R it is one time-optimal solve of
// the whole problem, TimeOptimal's instance.
//
// Phase solves go through tmpl, the completion template of the search result
// the repetend belongs to (res itself in Search, the result Extend extends),
// so a repeat of the same instance, the same small N included, costs no
// solve. This is the path Search always takes and Extend takes below n0, for
// a result it could not certify, and to certify one; a certified Extend
// composes the same schedule from the certificate instead (template.go).
func completeSchedule(ctx context.Context, res *Result, r *repetend.Repetend, n int, opts Options, tmpl *template) error {
	p := res.Placement
	if n < r.NR {
		full, _, _, err := solvePhase(ctx, p, phase{blocks: solver.AllBlocks(p, n)}, false, opts, tmpl, &res.Stats)
		if err != nil {
			return fmt.Errorf("time-optimal solve of %s with %d micro-batches: %w", p.Name, n, err)
		}
		res.Full = full
		return nil
	}
	c, err := compose(ctx, p, r, n, opts, tmpl, &res.Stats)
	if err != nil {
		return err
	}
	full := c.schedule(p, r, 0)
	if err := full.Validate(sched.ValidateOptions{Memory: opts.Memory}); err != nil {
		return fmt.Errorf("completed schedule invalid: %w", err)
	}
	res.Full = full
	return nil
}

// composition is a completion of n ≥ N_R micro-batches before its merge: the
// warmup's and the cooldown's items in item order, the offset δ of the body's
// reps instances, and the template memos that answered the two phase solves
// (nil for a phase with no blocks, or for a solution the template could not
// keep).
type composition struct {
	warm, cool         []sched.Item
	delta, reps        int
	warmMemo, coolMemo *phaseMemo
}

// compose solves the warmup and the cooldown of r's completion of n ≥ N_R
// micro-batches and places the body between them.
//
// Each phase is read once: one pass over the warmup's items yields the
// devices' warmup finishes, the warmup's bound on the body offset δ and the
// releases of the cooldown blocks the warmup precedes; the body is the
// repetend's closed form, instance k of stage i starting at δ + Starts[i] +
// k·Period, so its bounds on the cooldown cost O(K), not a walk of its items.
func compose(ctx context.Context, p *sched.Placement, r *repetend.Repetend, n int, opts Options, tmpl *template, stats *Stats) (composition, error) {
	reps := n - r.NR + 1

	// Warmup: time-optimal solve from t=0.
	warmSched, _, warmMemo, err := solvePhase(ctx, p, phase{blocks: warmupBlocks(p, r.Assign)}, false, opts, tmpl, stats)
	if err != nil {
		return composition{}, fmt.Errorf("warmup: %w", err)
	}

	// Stage i's micro-batch m is a warmup block below Assign[i], instance
	// m − Assign[i] of the body for the next reps, a cooldown block from there
	// on. A warmup block (i, m) finishing at f bounds the body offset δ, the
	// earliest start of instance 0, through each successor j's instance
	// k = m − Assign[j] (tight compaction across the phase boundary), and
	// releases j's cooldown block (j, m) when k is past the body (m is below
	// Assign[i] < N_R ≤ N, so that block exists).
	cool := cooldownBlocks(p, r.Assign, reps, n)
	delta := 0
	lastW := make([]int, p.NumDevices)
	releases := make(map[sched.Block]int, len(cool))
	for _, it := range warmSched.Items {
		f := it.Start + p.Stages[it.Stage].Time
		for _, d := range p.Stages[it.Stage].Devices {
			lastW[d] = max(lastW[d], f)
		}
		for _, j := range p.Deps[it.Stage] {
			if k := it.Micro - r.Assign[j]; k >= reps {
				if succ := (sched.Block{Stage: j, Micro: it.Micro}); f > releases[succ] {
					releases[succ] = f
				}
			} else if k >= 0 {
				delta = max(delta, f-(r.Starts[j]+k*r.Period))
			}
		}
	}
	// Each device's repetend blocks start no earlier than its last warmup
	// block ends.
	for i, st := range p.Stages {
		for _, d := range st.Devices {
			delta = max(delta, lastW[d]-r.Starts[i])
		}
	}

	// Cooldown: from the memory the warmup and the body leave held, each
	// device free once its last warmup block and its stages' last instance
	// end, and each block released by the body instance that precedes it.
	deviceReady := lastW
	for i, st := range p.Stages {
		f := delta + r.Starts[i] + (reps-1)*r.Period + st.Time
		for _, d := range st.Devices {
			deviceReady[d] = max(deviceReady[d], f)
		}
	}
	for i, succs := range p.Deps {
		for _, j := range succs {
			for m := max(r.Assign[j]+reps, r.Assign[i]); m < min(n, r.Assign[i]+reps); m++ {
				f := delta + r.Starts[i] + (m-r.Assign[i])*r.Period + p.Stages[i].Time
				if succ := (sched.Block{Stage: j, Micro: m}); f > releases[succ] {
					releases[succ] = f
				}
			}
		}
	}
	coolSched, _, coolMemo, err := solvePhase(ctx, p, phase{blocks: cool, releases: releases, initMem: repetend.EntryMemory(p, r.Assign, reps), ready: deviceReady, cooldown: true}, false, opts, tmpl, stats)
	if err != nil {
		return composition{}, fmt.Errorf("cooldown: %w", err)
	}
	return composition{warm: warmSched.Items, cool: coolSched.Items, delta: delta, reps: reps, warmMemo: warmMemo, coolMemo: coolMemo}, nil
}

// schedule merges c into one schedule, its cooldown moved by shift
// micro-batches and shift periods: 0 for the n c was solved for, n − n0 for a
// certificate's parts extended to n. The body and a moved cooldown are
// written into the schedule's own array, past room for the warmup's and
// cooldown's items, so that the merge, which writes from the front, joins
// the parts in place (each is in item order: solvePhase sorts, AppendUnroll
// emits in order, and a move keeps the order). Unmoved, the cooldown is
// merged from its own array and the schedule's is exactly its size, as a
// cached result's should be.
func (c *composition) schedule(p *sched.Placement, r *repetend.Repetend, shift int) *sched.Schedule {
	head := len(c.warm) + len(c.cool)
	size := head + c.reps*p.K()
	if shift != 0 {
		size += len(c.cool)
	}
	items := make([]sched.Item, head, size)
	body, cool := c.unroll(items, r, shift)
	return sched.Merge(p, items[:0], c.warm, body, cool)
}

// unroll appends to dst the body, c.reps instances at δ, then the cooldown
// moved by shift micro-batches and shift periods when shift is not 0, and
// returns the body and the cooldown as they lie — an unmoved cooldown is
// c.cool itself.
func (c *composition) unroll(dst []sched.Item, r *repetend.Repetend, shift int) (body, cool []sched.Item) {
	at := len(dst)
	dst = r.AppendUnroll(dst, c.reps, c.delta)
	if shift == 0 {
		return dst[at:], c.cool
	}
	end := len(dst)
	for _, it := range c.cool {
		it.Micro += shift
		it.Start += shift * r.Period
		dst = append(dst, it)
	}
	return dst[at:end], dst[end:]
}

// phase is one solver instance of a completion: its blocks, the release time
// of each block a block outside the phase precedes, and the memory held and
// the time each device is free when it begins (nil: none held, every device
// free at 0). A cooldown's solve counts as such in Stats; every other one, a
// whole-problem solve included, as a warmup's.
type phase struct {
	blocks         []sched.Block
	releases       map[sched.Block]int
	initMem, ready []int
	cooldown       bool
}

// errInfeasible is the verdict on a phase that no schedule satisfies.
var errInfeasible = errors.New("phase infeasible")

// solvePhase is the one way into the solver from this package: the lazy
// gate's checks, a completion's warmup and cooldown, the whole-problem solve
// below N_R, and TimeOptimal. It puts the phase's blocks in solver task order
// and solves them time-optimally, or only to the first valid schedule when
// satisfy is set, and returns their schedule and the solver's result; a phase
// with no valid schedule returns errInfeasible and no schedule.
//
// With stats, the solve's nodes and time add to the phase's counters and a
// budget-degraded solve marks the search truncated. With tmpl, a time-optimal
// solve that its instance alone determines — proven optimal, or cut short by
// the node budget — is stored there, and an instance tmpl already holds is
// answered from it without being built or solved (no nodes); either way the
// memo that holds the solution is returned, and nil when tmpl does not keep
// it. A satisfying schedule is never stored: it is not the optimum a replay
// stands for.
func solvePhase(ctx context.Context, p *sched.Placement, ph phase, satisfy bool, opts Options, tmpl *template, stats *Stats) (*sched.Schedule, solver.Result, *phaseMemo, error) {
	s := sched.NewSchedule(p)
	if len(ph.blocks) == 0 {
		return s, solver.Result{Feasible: true, Optimal: true}, nil, nil
	}
	//tessel:waive:determinism wall-clock feeds only the Stats.Phase telemetry, never schedule bytes
	t0 := time.Now()
	blocks := ph.blocks
	//tessel:totalorder (Micro, Stage) is unique per block (BuildTasks rejects duplicates)
	slices.SortFunc(blocks, func(a, b sched.Block) int {
		return cmp.Or(cmp.Compare(a.Micro, b.Micro), cmp.Compare(a.Stage, b.Stage))
	})
	solveOpts := solver.Options{
		NumDevices:  p.NumDevices,
		Memory:      opts.Memory,
		InitialMem:  ph.initMem,
		DeviceReady: ph.ready,
		MaxNodes:    opts.SolverNodes,
		Timeout:     opts.SolverTimeout,
		SatisfyOnly: satisfy,
	}
	var memo *phaseMemo
	base := 0
	if tmpl != nil {
		memo, base = tmpl.lookup(p, blocks, ph.releases, solveOpts)
	}
	var res solver.Result
	if memo != nil {
		res = solver.Result{Feasible: true, Optimal: !memo.truncated, Starts: memo.starts}
	} else {
		tasks, err := solver.BuildTasks(p, blocks, ph.releases)
		if err != nil {
			return nil, res, nil, err
		}
		if res, err = solver.Solve(ctx, tasks, solveOpts); err != nil {
			return nil, res, nil, err
		}
		// A solve the node budget ended stopped where it did on the instance's
		// account alone and would stop there again. The solver checks the node
		// budget before the clock, so reaching it means the clock did not stop
		// the solve.
		if tmpl != nil && !satisfy && res.Feasible && (res.Optimal || solveOpts.MaxNodes > 0 && res.Nodes >= solveOpts.MaxNodes) {
			memo = tmpl.store(p, blocks, ph.releases, solveOpts, res.Starts, !res.Optimal)
		}
	}
	if stats != nil {
		nodes, took := &stats.WarmupNodes, &stats.Phase.Warmup
		if ph.cooldown {
			nodes, took = &stats.CooldownNodes, &stats.Phase.Cooldown
		}
		*nodes += res.Nodes
		*took += time.Since(t0)
		stats.Truncated = stats.Truncated || !res.Optimal
	}
	if !res.Feasible {
		return nil, res, nil, errInfeasible
	}
	s.Items = make([]sched.Item, len(blocks))
	for i, b := range blocks {
		s.Items[i] = sched.Item{Block: b, Start: base + res.Starts[i]}
	}
	s.Sort()
	return s, res, memo, nil
}

// TimeOptimal solves the whole N-micro-batch problem exactly — the "TO"
// baseline of §III-B (Figure 3) and the search-cost comparison of Figure 9.
// Cancelling ctx aborts the solve and returns ctx's error.
func TimeOptimal(ctx context.Context, p *sched.Placement, n int, opts Options) (*sched.Schedule, solver.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n < 0 {
		return nil, solver.Result{}, fmt.Errorf("core: micro-batch count must be non-negative, got %d", n)
	}
	s, res, _, err := solvePhase(ctx, p, phase{blocks: solver.AllBlocks(p, n)}, false, opts.Resolve(p), nil, nil)
	if errors.Is(err, errInfeasible) {
		err = fmt.Errorf("time-optimal solve infeasible for %s with %d micro-batches", p.Name, n)
	}
	return s, res, err
}
