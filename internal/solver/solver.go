// Package solver provides the exact schedule solver Tessel relies on — the
// role Z3 plays in the paper (§V, "Solver implementation"). Given a set of
// blocks with integer durations, memory deltas, device assignments, release
// times and precedence edges, it finds a minimum-makespan schedule (or, asked
// only to satisfy, any feasible one) subject to the three constraint families
// of Equation 1: exclusive per-device execution, per-device memory capacity,
// and data dependencies.
//
// # Method
//
// The solver enumerates precedence-feasible block orders depth-first,
// scheduling each appended block at its earliest feasible start. Because
// memory in this model changes only at block *starts* (Equation 1 item [2]
// counts blocks with s_B < τ), per-device memory feasibility depends only on
// the start order of blocks on the device, so earliest-start replay of any
// feasible schedule's start order is itself feasible with no larger
// makespan. Enumerating all orders is therefore complete.
//
// The search loop is built for node throughput — its steady state performs
// no heap allocations:
//
//   - the eligible-task frontier is maintained *incrementally*: apply/undo
//     update a swap-remove frontier list on predecessor-count transitions
//     and Property 4.1 symmetry unlocks, instead of rescanning all tasks at
//     every node;
//   - candidates are ordered by an in-place insertion sort over a pooled
//     per-depth buffer (no sort.Slice closure per node);
//   - lower bounds run cheapest-first: device loads and a static
//     whole-instance bound computed once per solve are consulted before the
//     memo probe and the full critical-path bound, which itself walks only
//     the remaining tasks via an incrementally maintained topo-order list —
//     and on the same walk collects, per device, the earliest start estimate
//     and the shortest tail among its remaining tasks for the one-machine
//     head/tail bound (min est + remaining work + min tail), and, on
//     instances with barrier tasks (ones that occupy every used device, like
//     the all-device embedding and head stages of the M-, NN- and K-shapes),
//     the longest non-barrier chain that must start after the latest device
//     availability M for the barrier bound (M + remaining barrier work +
//     that chain);
//   - dominance memoization over (scheduled set, device availability,
//     finish times of scheduled tasks that still have *unscheduled*
//     successors) lives in an open-addressed table whose vectors are stored
//     in a growable arena (memo.go) and which resets by generation counter,
//     not reallocation. Restricting the state to components that can still
//     constrain a future start — a task whose successors are all scheduled
//     cannot — keeps the dominance sound while making it strictly stronger
//     than comparing every scheduled finish, which is what lets instances
//     that previously exhausted node budgets solve to proven optimality;
//   - searchers are recycled through one package-level sync.Pool, so the
//     hundreds of instance solves of a repetend sweep stop rebuilding task
//     graphs, successor lists and memo tables from scratch.
//
// Pruning uses device-load, critical-path, one-machine and barrier lower
// bounds, the dominance memo, and the micro-batch symmetry of Property 4.1
// (same-stage blocks may start in increasing micro order without loss of
// optimality). A lower bound only ever cuts a subtree that cannot strictly
// improve the incumbent, so a stronger one leaves the returned schedule — the
// first optimal one in DFS order — byte-identical and only shrinks the node
// count (testdata/solves.golden.json holds every bound to that, and
// soundness_test.go every term at every state of small instances). Dominance
// pruning selects among equally-optimal schedules, so strengthening it can
// change which optimal start vector a solve returns (never its makespan,
// feasibility, or optimality verdicts); searches remain deterministic.
//
// A solve is one sequential depth-first search. The concurrency of a Tessel
// search is the paper's own — Algorithm 1's loop over N_R and assignments,
// core.Options.Workers — one layer up: the instance solves of a sweep are a
// few thousand nodes each, and splitting a single solve across workers was
// measured 3–5× slower than this search on every instance that still needs
// one (EXPERIMENTS.md, "Jobs mode").
//
// The problem is NP-hard (§III-B); the solver therefore accepts node and
// wall-clock budgets and reports whether the returned result is proven
// optimal. Figure 3 of the paper — search time exploding with the number of
// micro-batches — reproduces directly on this solver for the X-, M- and
// NN-shape placements (the barrier bound roughly halves M-shape's nodes but
// does not stop the growth); whole-problem V- and K-shape instances are
// decided at the root (the first descent meets the one-machine bound) for
// every N.
//
// # Cancellation
//
// Solve takes a context.Context and is the single point the whole search
// stack relies on for cancellation: the context's Done channel is polled
// every few hundred search nodes (a node costs well under a microsecond),
// so cancelling or exceeding the context deadline makes Solve return ctx's
// error promptly. A context cancellation is a hard stop and surfaces as an
// error; the per-call soft budgets (MaxNodes, Timeout) are different in
// kind — exhausting them returns the best incumbent found so far with
// Optimal=false and no error.
package solver

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"tessel/internal/faultpoint"
	"tessel/internal/sched"
)

// Unbounded mirrors sched.Unbounded for memory capacities.
const Unbounded = sched.Unbounded

// Mechanism switches, written only by tests for the on/off differentials and
// the ablation benchmarks. barrierBoundOn false marks no task a barrier, so
// pathBound's barrier term never fires; symmetryOn false links no Property 4.1
// chain; memoOn false skips the dominance memo.
var barrierBoundOn, symmetryOn, memoOn = true, true, true

// Task is one block to schedule. Tasks are referenced by their index in the
// slice passed to Solve.
type Task struct {
	// ID identifies the block (stage, micro) this task represents; the
	// solver treats it as opaque except for Property 4.1 symmetry breaking,
	// which groups tasks by ID.Stage.
	ID sched.Block
	// Time is the execution duration (must be positive).
	Time int
	// Mem is the memory delta applied to each device in Devices at start.
	Mem int
	// Devices are the devices the task occupies exclusively while running.
	Devices []sched.DeviceID
	// Preds lists indices of tasks that must finish before this task starts.
	Preds []int
	// Release is the earliest admissible start time (0 if none); used to
	// model dependencies on blocks scheduled in an earlier phase.
	Release int
}

// Options configures a Solve call. The zero value means: devices inferred
// from tasks, unbounded memory, full optimization, no budget.
type Options struct {
	// NumDevices is the device count D; if 0 it is inferred as 1 + the
	// maximum device id used by any task.
	NumDevices int
	// Memory is the per-device capacity M (Unbounded disables the check).
	// Zero means Unbounded for convenience.
	Memory int
	// InitialMem is per-device memory already in use at time 0 (nil = 0s).
	InitialMem []int
	// DeviceReady gives per-device earliest availability (nil = 0s), used
	// when composing phases.
	DeviceReady []int
	// SatisfyOnly stops at the first feasible schedule instead of proving
	// optimality — the satisfiability check of the paper's lazy search
	// optimization (§V).
	SatisfyOnly bool
	// MaxNodes bounds the number of search nodes (0 = unlimited). When the
	// budget is exhausted the best incumbent is returned with Optimal=false.
	MaxNodes int64
	// Timeout bounds wall-clock time (0 = unlimited), same fallback. Unlike
	// a context deadline — which aborts the solve with an error — exhausting
	// Timeout degrades gracefully to the incumbent.
	Timeout time.Duration
	// Workers is not read: every solve is the one sequential search. The
	// field remains only because benchmark/layerprobe/main.go:662 — frozen
	// outside benchmark-only changes — still sets it for its nmb6_w2 probe.
	Workers int
}

// Result reports the outcome of a Solve call.
type Result struct {
	// Feasible is true when a schedule satisfying all constraints was found.
	Feasible bool
	// Optimal is true when the search space was exhausted, proving the
	// returned makespan minimal (always false if SatisfyOnly found early).
	Optimal bool
	// Makespan is the completion time of the best schedule found.
	Makespan int
	// Starts holds the start time per task (parallel to the input slice).
	Starts []int
	// Nodes is the number of search nodes expanded — the numerator of
	// nodes-per-second rates.
	Nodes int64
	// MemoHits is the number of nodes pruned by the dominance memo — the
	// per-solve effectiveness measure of the memoization.
	MemoHits int64
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
}

type candidate struct {
	task  int
	start int
}

// frame is the per-depth scratch of one dfs level: the candidate buffer and
// the saved device-availability snapshot of the candidate being explored.
// Frames are indexed by depth (= nSched) and reused across the whole solve
// — and, through the searchers pool, across solves.
type frame struct {
	cands []candidate
	saved []int
}

type searcher struct {
	ctx   context.Context
	tasks []Task
	opts  Options
	d     int // device count
	n     int // task count

	// Static task-graph structure, rebuilt per solve into reused buffers.
	// Hot per-task scalars are flattened out of the Task structs and the
	// adjacency lists stored in CSR form, so the inner loops walk dense
	// int slices instead of chasing struct fields.
	time     []int
	release  []int
	mem      []int
	succOff  []int32 // CSR offsets into succList, len n+1
	succList []int32 // successor task indices, grouped by predecessor
	succCur  []int32 // CSR fill cursor (reset scratch)
	predOff  []int32 // CSR offsets into predList, len n+1
	predList []int32
	devOff   []int32 // CSR offsets into devList, len n+1
	devList  []int32 // device ids per task
	npred    []int   // predecessor counts
	tail     []int   // longest duration path through successors (excl. self)
	symPred  []int   // Property 4.1: same-stage task with next-smaller micro, or -1
	symSucc  []int   // inverse of symPred, or -1
	symOrder []int   // (stage, micro, index)-sorted task ids (reset scratch)
	topo     []int   // topological order of tasks
	topoPos  []int32 // task -> position in topo
	indeg    []int   // Kahn scratch
	hasSucc  []bool
	est      []int // critical-path scratch (pathBound)
	devHead  []int // one-machine scratch: min est over a device's unscheduled tasks
	devTail  []int // one-machine scratch: min tail over the same tasks
	staticLB int   // critical-path lower bound over the whole instance

	// Barrier tasks occupy every device any task uses, so they overlap no
	// other task. barrierTime is a task's duration if it is one, else 0;
	// barrierRep is one of them (-1 if none), whose devices are the
	// instance's used devices; chain is the longest path from a task on,
	// counted in non-barrier durations. With barrierLeft they feed
	// pathBound's barrier term.
	barrierTime []int
	barrierRep  int
	chain       []int

	// Doubly-linked list of *unscheduled* topo positions (sentinel at n),
	// maintained by apply/undo so pathBound walks only the remaining tasks.
	topoNext []int32
	topoPrev []int32

	// Dynamic search state, saved/restored incrementally by apply/undo.
	remWork     []int // per-device remaining duration of unscheduled tasks
	devAvail    []int
	devMem      []int
	finish      []int // per task; -1 while unscheduled
	starts      []int
	sched       []bool
	predLeft    []int // unscheduled predecessor count
	nSched      int
	makespan    int
	barrierLeft int // remaining duration of unscheduled barrier tasks

	// frontier holds exactly the eligible tasks: unscheduled, all
	// predecessors scheduled, symmetry-unlocked. frontPos is each task's
	// index in frontier (-1 when absent); removal swaps with the last
	// element, so membership updates are O(1).
	frontier []int32
	frontPos []int32

	maskWords int
	mask      []uint64
	// liveMask marks tasks whose finish belongs in the dominance state:
	// scheduled with at least one *unscheduled* successor. A task whose
	// successors are all scheduled cannot constrain any future start, so
	// dropping its component keeps dominance sound while shortening
	// vectors and strictly strengthening the pruning. (For a fixed
	// scheduled-set mask the live set is a function of the mask, so
	// per-key vector layouts stay aligned.)
	liveMask    []uint64
	succUnsched []int32 // per task: number of unscheduled successors

	memo       memoTable
	memoHits   int64
	vecScratch []uint64 // scratch for packed dominance probes

	frames []frame // per-depth candidate + saved-avail buffers

	best       Result
	bestStarts []int // incumbent start times, reused across improvements
	bestSet    bool
	nodes      int64
	truncated  bool
	cancelled  bool
	startTime  time.Time
	deadlineT  time.Time
	hasWallDL  bool
}

// Solve finds a schedule for the given tasks under opts. It never panics on
// well-formed input; malformed input (bad indices, non-positive durations)
// returns a zero Result and an error. Cancelling ctx (or passing one whose
// deadline has passed) aborts the solve promptly and returns ctx's error
// alongside the best incumbent found before the abort.
//
// Solve draws its searcher from the package's pool, so back-to-back solves
// reuse the task-graph, frontier, and memo storage of earlier ones; a
// searcher is fully re-initialized per call, so only the allocation behavior
// depends on which one a solve gets.
func Solve(ctx context.Context, tasks []Task, opts Options) (Result, error) {
	s := searchers.Get().(*searcher)
	res, err := s.solve(ctx, tasks, opts)
	searchers.Put(s)
	return res, err
}

// searchers recycles searchers — task-graph CSR arrays, frontier and
// per-depth candidate buffers, the dominance-memo arenas — across Solve
// calls, concurrent ones drawing distinct searchers.
var searchers = sync.Pool{New: func() any { return new(searcher) }}

// solve runs one full solve on this searcher, re-initializing every piece
// of state.
func (s *searcher) solve(ctx context.Context, tasks []Task, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := faultpoint.Inject(faultpoint.SolverSolve); err != nil {
		return Result{}, err
	}
	if len(tasks) == 0 {
		return Result{Feasible: true, Optimal: true}, nil
	}
	if err := s.reset(ctx, tasks, opts); err != nil {
		s.releaseRefs()
		return Result{}, err
	}
	s.run()
	s.best.Nodes = s.nodes
	s.best.MemoHits = s.memoHits
	s.best.Elapsed = time.Since(s.startTime)
	s.best.Optimal = s.bestSet && !s.truncated && !(opts.SatisfyOnly)
	if opts.SatisfyOnly && s.bestSet {
		// A satisfying schedule is "optimal" in the sense the caller asked
		// for: it answers the satisfiability query definitively.
		s.best.Optimal = true
	}
	if !s.bestSet && !s.truncated {
		// Exhausted the space without a solution: proven infeasible.
		s.best.Optimal = true
	}
	if s.bestSet {
		// The incumbent lives in reused scratch; hand the caller a copy it
		// owns (the single steady-state allocation of a solve).
		s.best.Starts = append([]int(nil), s.bestStarts...)
	}
	res := s.best
	s.releaseRefs()
	s.best = Result{}
	if s.cancelled {
		res.Optimal = false
		return res, ctx.Err()
	}
	return res, nil
}

// releaseRefs drops every reference a searcher holds into caller memory —
// the context, the task slice (with its device and predecessor lists), and
// the option slices — so a pooled searcher does not pin them until its
// next use. Called on every solve exit path, including reset failures.
func (s *searcher) releaseRefs() {
	s.ctx, s.tasks = nil, nil
	s.opts = Options{}
}

// --- buffer reuse helpers --------------------------------------------------

func intsN(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func int32sN(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func boolsN(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// reset validates the input and rebuilds every searcher structure for it,
// reusing the buffers of previous solves wherever capacities allow.
func (s *searcher) reset(ctx context.Context, tasks []Task, opts Options) error {
	d := opts.NumDevices
	for i := range tasks {
		if tasks[i].Time <= 0 {
			return fmt.Errorf("task %d: non-positive duration %d", i, tasks[i].Time)
		}
		if len(tasks[i].Devices) == 0 {
			return fmt.Errorf("task %d: no devices", i)
		}
		for _, dev := range tasks[i].Devices {
			if dev < 0 {
				return fmt.Errorf("task %d: negative device %d", i, dev)
			}
			if int(dev)+1 > d {
				d = int(dev) + 1
			}
		}
		for _, p := range tasks[i].Preds {
			if p < 0 || p >= len(tasks) || p == i {
				return fmt.Errorf("task %d: bad predecessor index %d", i, p)
			}
		}
	}
	n := len(tasks)
	s.ctx, s.tasks, s.opts, s.d, s.n = ctx, tasks, opts, d, n
	if opts.Memory == 0 {
		s.opts.Memory = Unbounded
	}

	// Flatten the hot per-task scalars and store predecessor, successor and
	// device lists in CSR form.
	s.time = intsN(s.time, n)
	s.release = intsN(s.release, n)
	s.mem = intsN(s.mem, n)
	s.npred = intsN(s.npred, n)
	s.succOff = int32sN(s.succOff, n+1)
	s.predOff = int32sN(s.predOff, n+1)
	s.devOff = int32sN(s.devOff, n+1)
	s.succCur = int32sN(s.succCur, n)
	edges, devRefs := 0, 0
	for i := range tasks {
		s.time[i] = tasks[i].Time
		s.release[i] = tasks[i].Release
		s.mem[i] = tasks[i].Mem
		s.npred[i] = len(tasks[i].Preds)
		edges += len(tasks[i].Preds)
		devRefs += len(tasks[i].Devices)
	}
	s.predOff[0], s.devOff[0] = 0, 0
	for i := range tasks {
		s.predOff[i+1] = s.predOff[i] + int32(len(tasks[i].Preds))
		s.devOff[i+1] = s.devOff[i] + int32(len(tasks[i].Devices))
	}
	s.predList = int32sN(s.predList, edges)
	s.devList = int32sN(s.devList, devRefs)
	for i := range tasks {
		off := s.predOff[i]
		for j, p := range tasks[i].Preds {
			s.predList[off+int32(j)] = int32(p)
		}
		off = s.devOff[i]
		for j, dev := range tasks[i].Devices {
			s.devList[off+int32(j)] = int32(dev)
		}
	}
	clear(s.succCur[:n])
	for i := range tasks {
		for _, p := range tasks[i].Preds {
			s.succCur[p]++
		}
	}
	s.succOff[0] = 0
	for i := 0; i < n; i++ {
		s.succOff[i+1] = s.succOff[i] + s.succCur[i]
	}
	s.succList = int32sN(s.succList, edges)
	copy(s.succCur, s.succOff[:n])
	for i := range tasks {
		for _, p := range tasks[i].Preds {
			s.succList[s.succCur[p]] = int32(i)
			s.succCur[p]++
		}
	}
	s.hasSucc = boolsN(s.hasSucc, n)
	for i := 0; i < n; i++ {
		s.hasSucc[i] = s.succOff[i+1] > s.succOff[i]
	}

	// Topological order (Kahn; also detects cycles).
	s.topo = intsN(s.topo, n)[:0]
	s.indeg = intsN(s.indeg, n)
	copy(s.indeg, s.npred)
	for i := 0; i < n; i++ {
		if s.indeg[i] == 0 {
			s.topo = append(s.topo, i)
		}
	}
	for head := 0; head < len(s.topo); head++ {
		u := s.topo[head]
		for _, v := range s.succList[s.succOff[u]:s.succOff[u+1]] {
			s.indeg[v]--
			if s.indeg[v] == 0 {
				s.topo = append(s.topo, int(v))
			}
		}
	}
	if len(s.topo) != n {
		return fmt.Errorf("dependency graph has a cycle")
	}

	// Barrier tasks. devHead serves as a per-device stamp until pathBound
	// takes it over: 0 marks a used device, t+1 a device task t names.
	s.devHead = intsN(s.devHead, d)
	used := s.devHead
	for dev := range used {
		used[dev] = -1
	}
	nUsed := 0
	for _, dev := range s.devList {
		if used[dev] < 0 {
			used[dev] = 0
			nUsed++
		}
	}
	s.barrierTime = intsN(s.barrierTime, n)
	s.barrierRep = -1
	for t := 0; t < n; t++ {
		k := 0
		for _, dev := range s.devList[s.devOff[t]:s.devOff[t+1]] {
			if used[dev] != t+1 {
				used[dev] = t + 1
				k++
			}
		}
		s.barrierTime[t] = 0
		if barrierBoundOn && k == nUsed {
			s.barrierTime[t] = s.time[t]
			if s.barrierRep < 0 {
				s.barrierRep = t
			}
		}
	}

	// Tail lengths: longest duration path strictly below each task; chain
	// counts the path from the task itself in non-barrier durations.
	s.tail = intsN(s.tail, n)
	s.chain = intsN(s.chain, n)
	clear(s.tail)
	for idx := n - 1; idx >= 0; idx-- {
		u := s.topo[idx]
		c := 0
		for _, v := range s.succList[s.succOff[u]:s.succOff[u+1]] {
			if t := s.time[v] + s.tail[v]; t > s.tail[u] {
				s.tail[u] = t
			}
			c = max(c, s.chain[v])
		}
		s.chain[u] = c + s.time[u] - s.barrierTime[u]
	}

	// Unscheduled-task list in topo order (rootState links it): topoPos maps
	// tasks to positions, position n is the sentinel. pathBound walks this
	// list, so its cost tracks the number of *remaining* tasks, not n.
	s.topoPos = int32sN(s.topoPos, n)
	for idx, u := range s.topo {
		s.topoPos[u] = int32(idx)
	}

	// Property 4.1 chains: within each stage, link tasks in micro order.
	// Sorting by (stage, micro, index) groups stages contiguously; an
	// insertion sort into a reused buffer keeps this allocation-free.
	s.symPred = intsN(s.symPred, n)
	s.symSucc = intsN(s.symSucc, n)
	for i := 0; i < n; i++ {
		s.symPred[i] = -1
		s.symSucc[i] = -1
	}
	if symmetryOn {
		s.symOrder = intsN(s.symOrder, n)
		for i := 0; i < n; i++ {
			s.symOrder[i] = i
		}
		less := func(a, b int) bool {
			sa, sb := tasks[a].ID.Stage, tasks[b].ID.Stage
			if sa != sb {
				return sa < sb
			}
			ma, mb := tasks[a].ID.Micro, tasks[b].ID.Micro
			if ma != mb {
				return ma < mb
			}
			return a < b
		}
		for i := 1; i < n; i++ {
			v := s.symOrder[i]
			j := i - 1
			for j >= 0 && less(v, s.symOrder[j]) {
				s.symOrder[j+1] = s.symOrder[j]
				j--
			}
			s.symOrder[j+1] = v
		}
		for k := 1; k < n; k++ {
			prev, cur := s.symOrder[k-1], s.symOrder[k]
			if tasks[prev].ID.Stage == tasks[cur].ID.Stage &&
				tasks[prev].ID.Micro != tasks[cur].ID.Micro {
				s.symPred[cur] = prev
				s.symSucc[prev] = cur
			}
		}
	}

	s.maskWords = (n + 63) / 64
	s.rootState()
	if memoOn {
		s.memo.reset(s.maskWords)
	}
	s.memoHits = 0

	// Static lower bound: pathBound (critical path and one-machine bound)
	// over the full instance, computed once. At every node the cheap bounds
	// (device loads, staticLB) are tried first and the full
	// pathBound runs only when they fail to prune; each is a sound lower
	// bound on any completion of the node, so no node pathBound would keep
	// is lost.
	s.est = intsN(s.est, n)
	s.devTail = intsN(s.devTail, d)
	s.staticLB = s.pathBound()

	// Per-depth frames.
	for len(s.frames) < n+1 {
		s.frames = append(s.frames, frame{})
	}

	s.best = Result{Makespan: math.MaxInt / 2}
	s.bestSet = false
	s.nodes = 0
	s.truncated = false
	s.cancelled = false
	//tessel:waive:determinism wall-clock anchors the optional search budget; it only decides truncation, which is reported via Truncated
	s.startTime = time.Now()
	s.hasWallDL = false
	if opts.Timeout > 0 {
		s.deadlineT = s.startTime.Add(opts.Timeout)
		s.hasWallDL = true
	}
	return nil
}

// rootState puts the dynamic search state at the root: nothing scheduled,
// the devices at DeviceReady with InitialMem in use, the frontier the
// eligible roots. reset builds it; the first descent comes back through it.
func (s *searcher) rootState() {
	n, d := s.n, s.d
	s.topoNext = int32sN(s.topoNext, n+1)
	s.topoPrev = int32sN(s.topoPrev, n+1)
	for i := 0; i <= n; i++ {
		s.topoNext[i] = int32((i + 1) % (n + 1))
		s.topoPrev[i] = int32((i + n) % (n + 1))
	}
	s.remWork = intsN(s.remWork, d)
	clear(s.remWork)
	s.barrierLeft = 0
	for t := 0; t < n; t++ {
		for _, dev := range s.devList[s.devOff[t]:s.devOff[t+1]] {
			s.remWork[dev] += s.time[t]
		}
		s.barrierLeft += s.barrierTime[t]
	}
	s.devAvail = intsN(s.devAvail, d)
	clear(s.devAvail)
	copy(s.devAvail, s.opts.DeviceReady)
	s.devMem = intsN(s.devMem, d)
	clear(s.devMem)
	copy(s.devMem, s.opts.InitialMem)
	s.finish = intsN(s.finish, n)
	s.starts = intsN(s.starts, n)
	for i := 0; i < n; i++ {
		s.finish[i] = -1
		s.starts[i] = -1
	}
	s.sched = boolsN(s.sched, n)
	clear(s.sched)
	s.predLeft = intsN(s.predLeft, n)
	copy(s.predLeft, s.npred)
	s.nSched = 0
	s.makespan = 0
	s.mask = maskN(s.mask, s.maskWords)
	s.liveMask = maskN(s.liveMask, s.maskWords)
	s.succUnsched = int32sN(s.succUnsched, n)
	for i := 0; i < n; i++ {
		s.succUnsched[i] = s.succOff[i+1] - s.succOff[i]
	}
	s.frontPos = int32sN(s.frontPos, n)
	for i := 0; i < n; i++ {
		s.frontPos[i] = -1
	}
	if cap(s.frontier) < n {
		s.frontier = make([]int32, 0, n)
	} else {
		s.frontier = s.frontier[:0]
	}
	for t := 0; t < n; t++ {
		s.frontSync(t)
	}
}

// maskN reuses a []uint64 mask buffer and zeroes it.
func maskN(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (s *searcher) run() {
	s.descend()
	if s.opts.SatisfyOnly && s.bestSet {
		return
	}
	s.dfs()
}

// cutoff reports whether a branch with lower bound lb cannot strictly
// improve the incumbent.
func (s *searcher) cutoff(lb int) bool {
	return lb >= s.best.Makespan
}

func (s *searcher) record(starts []int, makespan int) {
	s.best.Feasible = true
	s.best.Makespan = makespan
	s.bestStarts = append(s.bestStarts[:0], starts...)
	s.bestSet = true
}

// descend seeds the incumbent with the search's own first descent, so
// pruning bites early: from the root it applies every node's first
// candidate, and records the schedule — the DFS's leftmost leaf — if every
// task got placed. It stops where no candidate fits memory. It expands no
// node and touches no memo; rootState takes the search back to the root.
func (s *searcher) descend() {
	for s.nSched < s.n {
		first, found := candidate{}, false
		for _, t := range s.frontier {
			if c, ok := s.candidateFor(int(t)); ok && (!found || s.before(c, first)) {
				first, found = c, true
			}
		}
		if !found {
			break
		}
		s.apply(first)
	}
	if s.nSched == s.n {
		s.record(s.starts, s.makespan)
	}
	s.rootState()
}

func (s *searcher) outOfBudget() bool {
	if s.opts.MaxNodes > 0 && s.nodes >= s.opts.MaxNodes {
		return true
	}
	if s.nodes%256 == 0 {
		select {
		case <-s.ctx.Done():
			s.cancelled = true
			return true
		default:
		}
		//tessel:waive:determinism wall-clock deadline check of the optional search budget; it only decides truncation, reported via Truncated
		if s.hasWallDL && time.Now().After(s.deadlineT) {
			return true
		}
	}
	return false
}

// pathBound is the critical-path lower bound: earliest start estimates over
// unscheduled tasks in topological order (ignoring device contention and
// memory, which keeps it a valid lower bound) plus tail lengths. It walks
// the incrementally maintained unscheduled list, so its cost shrinks with
// search depth. The array hoisting matters: this is the hottest loop of
// the search.
//
// The same walk feeds the one-machine head/tail bound: a device runs its
// unscheduled tasks one at a time, the first no earlier than the smallest of
// their start estimates, and whichever finishes last still has its tail to
// go, so min est + remaining work + min tail bounds every completion. It
// dominates the device-load bound (est ≥ devAvail on the task's devices) and,
// like the path bound, only cuts subtrees that cannot strictly improve the
// incumbent — the first optimal schedule in DFS order is unaffected.
//
// On instances with barrier tasks the walk also feeds the barrier bound. Let
// M be the latest availability of a used device. The search only appends, so
// every unscheduled barrier task starts at or after M, as does every task
// whose est is at least M. A barrier task overlaps no other task, so inside
// [M, makespan] the remaining barrier work B and any dependency chain of
// non-barrier tasks with est ≥ M (barrier links weigh zero) run one after
// another: M + B + the longest such chain bounds every completion. Every
// successor of a task with est ≥ M has est ≥ M too, so the longest chain is
// the largest static chain[u] over the tasks u with est ≥ M.
func (s *searcher) pathBound() int {
	topo, topoNext := s.topo, s.topoNext
	devOff, devList := s.devOff, s.devList
	predOff, predList := s.predOff, s.predList
	est, dur, tail, release := s.est, s.time, s.tail, s.release
	devAvail, finish, sched := s.devAvail, s.finish, s.sched
	head, minTail := s.devHead, s.devTail
	for dev := range head {
		head[dev], minTail[dev] = math.MaxInt, math.MaxInt
	}
	// With no barrier work left no est reaches m, and the term is off.
	chain, m := s.chain, math.MaxInt
	if s.barrierLeft > 0 {
		m = 0
		for di, de := devOff[s.barrierRep], devOff[s.barrierRep+1]; di < de; di++ {
			m = max(m, devAvail[devList[di]])
		}
	}
	lb, longest := 0, 0
	sentinel := int32(s.n)
	for pos := topoNext[sentinel]; pos != sentinel; pos = topoNext[pos] {
		u := topo[pos]
		e := release[u]
		for di, de := devOff[u], devOff[u+1]; di < de; di++ {
			if a := devAvail[devList[di]]; a > e {
				e = a
			}
		}
		for pi, pend := predOff[u], predOff[u+1]; pi < pend; pi++ {
			p := predList[pi]
			var pf int
			if sched[p] {
				pf = finish[p]
			} else {
				pf = est[p] + dur[p]
			}
			if pf > e {
				e = pf
			}
		}
		est[u] = e
		if b := e + dur[u] + tail[u]; b > lb {
			lb = b
		}
		for di, de := devOff[u], devOff[u+1]; di < de; di++ {
			dev := devList[di]
			head[dev] = min(head[dev], e)
			minTail[dev] = min(minTail[dev], tail[u])
		}
		if e >= m {
			longest = max(longest, chain[u])
		}
	}
	for dev, h := range head {
		if h != math.MaxInt {
			lb = max(lb, h+s.remWork[dev]+minTail[dev])
		}
	}
	if s.barrierLeft > 0 {
		lb = max(lb, m+s.barrierLeft+longest)
	}
	return lb
}

// fillStateVector writes the dominance state into dst, packed two int32
// components per word for the memo's lane-parallel compare: device
// availability plus finish times of scheduled tasks that still have
// successors (walked via the scheduled-set bitmask). Componentwise-≤ states
// dominate. The second result is the component sum, which orders a key's
// chain in the memo.
func (s *searcher) fillStateVector(dst []uint64) ([]uint64, int64) {
	dst = dst[:0]
	cur := uint64(0)
	k := 0
	sum := int64(0)
	for dev := 0; dev < s.d; dev++ {
		a := s.devAvail[dev]
		sum += int64(a)
		if k&1 == 0 {
			cur = uint64(uint32(a))
		} else {
			dst = append(dst, cur|uint64(uint32(a))<<32)
		}
		k++
	}
	finish := s.finish
	for w := 0; w < s.maskWords; w++ {
		word := s.liveMask[w]
		base := w << 6
		for word != 0 {
			f := finish[base+bits.TrailingZeros64(word)]
			sum += int64(f)
			if k&1 == 0 {
				cur = uint64(uint32(f))
			} else {
				dst = append(dst, cur|uint64(uint32(f))<<32)
			}
			k++
			word &= word - 1
		}
	}
	if k&1 == 1 {
		dst = append(dst, cur)
	}
	return dst, sum
}

// --- frontier maintenance --------------------------------------------------

func (s *searcher) frontPush(t int) {
	s.frontPos[t] = int32(len(s.frontier))
	s.frontier = append(s.frontier, int32(t))
}

func (s *searcher) frontRemove(t int) {
	i := s.frontPos[t]
	last := int32(len(s.frontier) - 1)
	moved := s.frontier[last]
	s.frontier[i] = moved
	s.frontPos[moved] = i
	s.frontier = s.frontier[:last]
	s.frontPos[t] = -1
}

// frontSync makes task t's frontier membership match its eligibility. It is
// idempotent, so apply/undo can call it for every task whose eligibility
// inputs (predLeft, symmetry predecessor) they touched.
func (s *searcher) frontSync(t int) {
	eligible := !s.sched[t] && s.predLeft[t] == 0 &&
		(s.symPred[t] < 0 || s.sched[s.symPred[t]])
	if eligible {
		if s.frontPos[t] < 0 {
			s.frontPush(t)
		}
	} else if s.frontPos[t] >= 0 {
		s.frontRemove(t)
	}
}

// --- the search ------------------------------------------------------------

// loadBound is the device-load bound: every device still has to run its
// remaining work after it becomes available. A device with none left bounds
// nothing — the makespan counts task finishes, and a DeviceReady past them all
// is no part of it.
func (s *searcher) loadBound() int {
	lb := 0
	for dev, w := range s.remWork {
		if w > 0 {
			lb = max(lb, s.devAvail[dev]+w)
		}
	}
	return lb
}

// prunedOrMemo runs the per-node pruning pipeline — incremental lower
// bounds, dominance memo, critical-path bound — exactly once per expanded
// node and reports whether the node is pruned.
func (s *searcher) prunedOrMemo() bool {
	// Lower bounds, cheapest first: device loads and the static
	// whole-instance critical path (a sound global bound on any completion).
	// Consulting them first lets many pruned nodes skip the memo probe and the
	// full critical-path recomputation.
	if s.cutoff(max(s.makespan, s.loadBound(), s.staticLB)) {
		return true
	}
	// Dominance memo and critical path, cheapest-expected-first: the memo
	// probe (often a hit) runs before the heavier pathBound walk. A state is
	// inserted into the memo iff its probe missed and pathBound kept the node.
	if memoOn {
		vec, vsum := s.fillStateVector(s.vecScratch)
		s.vecScratch = vec
		if s.memo.probe(s.mask, vec, vsum) {
			s.memoHits++
			return true
		}
		if s.cutoff(s.pathBound()) {
			return true
		}
		s.memo.insert(s.mask, vec, vsum)
		return false
	}
	return s.cutoff(s.pathBound())
}

// candidateFor is the candidate rule: eligible task t is a candidate if its
// memory delta fits every device it occupies, at its earliest start after its
// release, its devices' availability and its predecessors' finishes.
func (s *searcher) candidateFor(t int) (candidate, bool) {
	devs := s.devList[s.devOff[t]:s.devOff[t+1]]
	for _, dev := range devs {
		if s.devMem[dev]+s.mem[t] > s.opts.Memory {
			return candidate{}, false
		}
	}
	st := s.release[t]
	for _, dev := range devs {
		st = max(st, s.devAvail[dev])
	}
	for _, p := range s.predList[s.predOff[t]:s.predOff[t+1]] {
		st = max(st, s.finish[p])
	}
	return candidate{task: t, start: st}, true
}

// before is the expansion order: smallest start first, then longest tail,
// then lowest task index — a total order, so the expansion order is
// independent of frontier layout.
func (s *searcher) before(a, b candidate) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	if s.tail[a.task] != s.tail[b.task] {
		return s.tail[a.task] > s.tail[b.task]
	}
	return a.task < b.task
}

// collectCandidates gathers this node's candidates from the incrementally
// maintained frontier into the depth's reusable buffer, insertion-sorting
// them into expansion order as it goes.
func (s *searcher) collectCandidates() []candidate {
	fr := &s.frames[s.nSched]
	cands := fr.cands[:0]
	for _, t := range s.frontier {
		c, ok := s.candidateFor(int(t))
		if !ok {
			continue
		}
		j := len(cands) - 1
		cands = append(cands, c)
		for ; j >= 0 && s.before(c, cands[j]); j-- {
			cands[j+1] = cands[j]
		}
		cands[j+1] = c
	}
	fr.cands = cands
	return cands
}

func (s *searcher) dfs() {
	s.nodes++
	if s.outOfBudget() {
		s.truncated = true
		return
	}
	if s.nSched == s.n {
		if s.makespan < s.best.Makespan {
			s.record(s.starts, s.makespan)
		}
		return
	}
	if s.opts.SatisfyOnly && s.bestSet {
		return
	}
	if s.prunedOrMemo() {
		return
	}
	cands := s.collectCandidates()
	fr := &s.frames[s.nSched]
	for i := range cands {
		c := cands[i]
		devs := s.devList[s.devOff[c.task]:s.devOff[c.task+1]]
		saved := fr.saved[:0]
		for _, dev := range devs {
			saved = append(saved, s.devAvail[dev])
		}
		fr.saved = saved
		savedMakespan := s.makespan
		s.apply(c)
		s.dfs()
		s.undo(c, fr.saved, savedMakespan)
		if s.truncated || (s.opts.SatisfyOnly && s.bestSet) {
			return
		}
	}
}

func (s *searcher) apply(c candidate) {
	t := c.task
	s.frontRemove(t)
	pos := s.topoPos[t]
	s.topoNext[s.topoPrev[pos]] = s.topoNext[pos]
	s.topoPrev[s.topoNext[pos]] = s.topoPrev[pos]
	s.sched[t] = true
	s.mask[t>>6] |= 1 << (uint(t) & 63)
	s.starts[t] = c.start
	f := c.start + s.time[t]
	s.finish[t] = f
	if f > s.makespan {
		s.makespan = f
	}
	for _, dev := range s.devList[s.devOff[t]:s.devOff[t+1]] {
		s.devAvail[dev] = f
		s.devMem[dev] += s.mem[t]
		s.remWork[dev] -= s.time[t]
	}
	s.barrierLeft -= s.barrierTime[t]
	if s.hasSucc[t] {
		// All of t's successors are necessarily unscheduled here.
		s.liveMask[t>>6] |= 1 << (uint(t) & 63)
	}
	for _, p := range s.predList[s.predOff[t]:s.predOff[t+1]] {
		s.succUnsched[p]--
		if s.succUnsched[p] == 0 && s.sched[p] {
			// p's last successor just got scheduled: its finish no longer
			// constrains anything unscheduled.
			s.liveMask[p>>6] &^= 1 << (uint(p) & 63)
		}
	}
	for _, v := range s.succList[s.succOff[t]:s.succOff[t+1]] {
		s.predLeft[v]--
		if s.predLeft[v] == 0 {
			s.frontSync(int(v))
		}
	}
	if ss := s.symSucc[t]; ss >= 0 {
		s.frontSync(ss)
	}
	s.nSched++
}

func (s *searcher) undo(c candidate, savedAvail []int, savedMakespan int) {
	t := c.task
	s.nSched--
	if s.hasSucc[t] {
		s.liveMask[t>>6] &^= 1 << (uint(t) & 63)
	}
	for _, p := range s.predList[s.predOff[t]:s.predOff[t+1]] {
		if s.succUnsched[p] == 0 && s.sched[p] {
			s.liveMask[p>>6] |= 1 << (uint(p) & 63)
		}
		s.succUnsched[p]++
	}
	for _, v := range s.succList[s.succOff[t]:s.succOff[t+1]] {
		s.predLeft[v]++
		s.frontSync(int(v))
	}
	for i, dev := range s.devList[s.devOff[t]:s.devOff[t+1]] {
		s.devMem[dev] -= s.mem[t]
		s.remWork[dev] += s.time[t]
		s.devAvail[dev] = savedAvail[i]
	}
	s.barrierLeft += s.barrierTime[t]
	s.sched[t] = false
	s.mask[t>>6] &^= 1 << (uint(t) & 63)
	s.starts[t] = -1
	s.finish[t] = -1
	s.makespan = savedMakespan
	// Relink t's topo position; LIFO undo order makes the stored prev/next
	// pointers valid again.
	pos := s.topoPos[t]
	s.topoNext[s.topoPrev[pos]] = pos
	s.topoPrev[s.topoNext[pos]] = pos
	if ss := s.symSucc[t]; ss >= 0 {
		s.frontSync(ss)
	}
	s.frontSync(t)
}
