package repetend

// Tests of the allocation-free period engine against the naive reference
// implementation in reference_test.go: randomized byte-identical
// equivalence of minPeriod/localSearch/relaxedFeasible, incremental
// swap+undo state invariants (via the periodAudit hook), cancellation
// mid-pass, the ordersFromStarts tie-break, and steady-state allocation
// regression tests mirroring the solver package's.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"tessel/internal/sched"
)

// randomPlacement builds a small random DAG placement: 1–8 stages over 1–3
// devices, times 1–5, memory deltas −2..+2, each stage on one or two
// devices, forward edges i→j (i<j) with probability ~0.35.
func randomPlacement(rng *rand.Rand) *sched.Placement {
	k := 1 + rng.Intn(8)
	nd := 1 + rng.Intn(3)
	p := &sched.Placement{Name: "random", NumDevices: nd}
	p.Stages = make([]sched.Stage, k)
	p.Deps = make([][]int, k)
	for i := 0; i < k; i++ {
		devs := []sched.DeviceID{sched.DeviceID(rng.Intn(nd))}
		if nd > 1 && rng.Intn(4) == 0 {
			d2 := sched.DeviceID(rng.Intn(nd))
			if d2 != devs[0] {
				devs = append(devs, d2)
			}
		}
		p.Stages[i] = sched.Stage{
			Name:    "s",
			Time:    1 + rng.Intn(5),
			Mem:     rng.Intn(5) - 2,
			Devices: devs,
		}
		for j := i + 1; j < k; j++ {
			if rng.Intn(20) < 7 {
				p.Deps[i] = append(p.Deps[i], j)
			}
		}
	}
	return p
}

// chainPlacement builds a chain-heavy placement: a long dependency chain
// 0→1→…→k−1 over one or two devices. Under high-lag assignments its
// difference-constraint systems have strictly-improving relaxation chains
// of length ≈ k (the cross-lag chain closed by a device wrap edge), the
// shape that brings positive-cycle detection closest to its chain-length
// limit — a regression generator for that path.
func chainPlacement(rng *rand.Rand) *sched.Placement {
	k := 4 + rng.Intn(9)
	nd := 1 + rng.Intn(2)
	p := &sched.Placement{Name: "chain", NumDevices: nd}
	p.Stages = make([]sched.Stage, k)
	p.Deps = make([][]int, k)
	for i := 0; i < k; i++ {
		p.Stages[i] = sched.Stage{
			Name:    "s",
			Time:    1 + rng.Intn(3),
			Mem:     rng.Intn(3) - 1,
			Devices: []sched.DeviceID{sched.DeviceID(rng.Intn(nd))},
		}
		if i+1 < k {
			p.Deps[i] = append(p.Deps[i], i+1)
		}
	}
	return p
}

// randomAssignment draws micro indices in topological order with
// a[i] ≤ min over predecessors (Property 4.2).
func randomAssignment(rng *rand.Rand, p *sched.Placement) Assignment {
	return randomAssignmentMax(rng, p, 3)
}

func randomAssignmentMax(rng *rand.Rand, p *sched.Placement, max int) Assignment {
	order, err := p.TopoOrder()
	if err != nil {
		panic(err)
	}
	preds := p.PredTable()
	a := make(Assignment, p.K())
	for _, i := range order {
		hi := max
		for _, pr := range preds[i] {
			if a[pr] < hi {
				hi = a[pr]
			}
		}
		a[i] = rng.Intn(hi + 1)
	}
	return a
}

// randomStarts draws a start vector with deliberate duplicates, so derived
// orders exercise the (start, stage-id) tie-break and frequently conflict
// with the dependency edges (periodInfeasible coverage).
func randomStarts(rng *rand.Rand, k int) []int {
	starts := make([]int, k)
	for i := range starts {
		starts[i] = rng.Intn(2 * k)
	}
	return starts
}

// randomTopoStarts draws a dependency-consistent start vector (every stage
// starts at or after its lag-zero predecessors finish, with random slack):
// the derived orders are always period-feasible, which is what gives the
// local-search tests real work to audit.
func randomTopoStarts(rng *rand.Rand, p *sched.Placement, a Assignment) []int {
	order, err := p.TopoOrder()
	if err != nil {
		panic(err)
	}
	starts := make([]int, p.K())
	for _, i := range order {
		starts[i] = rng.Intn(3)
	}
	preds := p.PredTable()
	for _, i := range order {
		for _, pr := range preds[i] {
			if a[pr] != a[i] {
				continue // cross-lag dependency: no intra-instance edge
			}
			if f := starts[pr] + p.Stages[pr].Time + rng.Intn(2); f > starts[i] {
				starts[i] = f
			}
		}
	}
	return starts
}

// ordersSnapshot copies the engine's per-device order buffers out as the
// [][]int shape the reference implementation uses.
func ordersSnapshot(e *periodEngine) [][]int {
	out := make([][]int, e.nd)
	for d := 0; d < e.nd; d++ {
		out[d] = append([]int(nil), e.order[e.devHead[d]:e.devHead[d+1]]...)
	}
	return out
}

// checkEngineState cross-checks the engine's incremental order, position
// and prefix-memory buffers against the given authoritative orders and a
// from-scratch prefix recomputation — the swap+undo state invariant.
func checkEngineState(t *testing.T, e *periodEngine, shadow [][]int) {
	t.Helper()
	for d := 0; d < e.nd; d++ {
		base, end := e.devHead[d], e.devHead[d+1]
		if end-base != len(shadow[d]) {
			t.Fatalf("device %d: engine order has %d stages, shadow %d", d, end-base, len(shadow[d]))
		}
		m := e.entry[d]
		for x := base; x < end; x++ {
			id := e.order[x]
			if id != shadow[d][x-base] {
				t.Fatalf("device %d pos %d: engine order %d != shadow %d", d, x-base, id, shadow[d][x-base])
			}
			if got := e.ordPos[d*e.k+id]; got != x-base {
				t.Fatalf("device %d: ordPos[%d] = %d, want %d", d, id, got, x-base)
			}
			m += e.mems[id]
			if e.prefMem[x] != m {
				t.Fatalf("device %d pos %d: prefMem %d != recomputed %d", d, x-base, e.prefMem[x], m)
			}
			if e.mem != sched.Unbounded && e.prefMem[x] > e.mem {
				t.Fatalf("device %d pos %d: incumbent order violates memory (%d > %d)", d, x-base, e.prefMem[x], e.mem)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPeriodEngineMatchesReference is the central property test: for
// random placements, assignments, start-derived orders and bounds, the
// engine's SPFA minPeriod must return byte-identical
// (period, normalized starts, status) to the dense Bellman-Ford reference
// — including periodPruned and periodInfeasible outcomes under bounds.
// One engine is reused across all cases, so stale-scratch reuse bugs
// surface too.
func TestPeriodEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e := &periodEngine{}
	statuses := map[periodStatus]int{}
	for iter := 0; iter < 600; iter++ {
		p := randomPlacement(rng)
		a := randomAssignment(rng, p)
		if iter >= 400 {
			// Chain-heavy mode: long cross-lag chains.
			p = chainPlacement(rng)
			a = randomAssignmentMax(rng, p, 6)
		}
		if err := a.Validate(p, 0); err != nil {
			t.Fatalf("iter %d: generator broke property 4.2: %v", iter, err)
		}
		entry := EntryMemory(p, a, 0)
		starts := randomStarts(rng, p.K())
		orders := ordersFromStarts(p, starts)
		ref := newRefInstance(p, a, entry, sched.Unbounded)
		e.bind(p, a, entry, sched.Unbounded)
		e.setOrdersFromStarts(starts)
		checkEngineState(t, e, orders)

		// The order-independent relaxation must agree at arbitrary periods.
		for _, period := range []int{1 + rng.Intn(e.hiSum+1), e.lower, e.hiSum} {
			if got, want := e.relaxedFeasible(period), ref.refRelaxedFeasible(period); got != want {
				t.Fatalf("iter %d: relaxedFeasible(%d) = %v, reference %v", iter, period, got, want)
			}
		}

		bounds := []int{0, 1 + rng.Intn(e.hiSum+2)}
		wantP, _, wantSt := ref.refMinPeriod(orders, 0)
		if wantSt == periodOK {
			// The inclusive bound and the just-too-tight bound are the
			// interesting prune edges.
			bounds = append(bounds, wantP, wantP-1)
		}
		for _, bound := range bounds {
			refP, refS, refSt := ref.refMinPeriod(orders, bound)
			gotP, gotSt := e.minPeriod(bound)
			statuses[gotSt]++
			if gotSt != refSt || gotP != refP {
				t.Fatalf("iter %d bound %d: engine (%d, %v) != reference (%d, %v)\nassign %v starts %v",
					iter, bound, gotP, gotSt, refP, refSt, a, starts)
			}
			if gotSt == periodOK {
				gotS := e.appendStarts(nil)
				if !equalInts(gotS, refS) {
					t.Fatalf("iter %d bound %d: engine starts %v != reference %v", iter, bound, gotS, refS)
				}
			}
		}
	}
	for _, st := range []periodStatus{periodOK, periodPruned, periodInfeasible} {
		if statuses[st] == 0 {
			t.Fatalf("property test never exercised status %v (coverage %v)", st, statuses)
		}
	}
}

// TestLocalSearchMatchesReference checks the full order-improvement
// pipeline: starting from identical orders, the engine's in-place
// swap+undo local search must land on byte-identical (period, starts,
// orders) to the reference's clone-and-rescan local search, under both
// unbounded and binding memory capacities.
func TestLocalSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	e := &periodEngine{}
	ran := 0
	for iter := 0; iter < 250; iter++ {
		p := randomPlacement(rng)
		a := randomAssignment(rng, p)
		entry := EntryMemory(p, a, 0)
		mem := sched.Unbounded
		if rng.Intn(2) == 0 {
			mem = 4 + rng.Intn(8)
		}
		starts := randomTopoStarts(rng, p, a)
		if iter%3 == 0 {
			starts = randomStarts(rng, p.K())
		}
		orders := ordersFromStarts(p, starts)
		ref := newRefInstance(p, a, entry, mem)
		// The engine's delta memory check assumes the incumbent orders are
		// memory-feasible (true for production instance schedules); keep
		// the generator inside that contract.
		for d, m := range entry {
			if m > mem {
				mem = sched.Unbounded
			}
			_ = d
		}
		if mem != sched.Unbounded {
			ref.mem = mem
			if !ref.refMemoryOK(orders) {
				mem = sched.Unbounded
			}
		}
		ref.mem = mem
		e.bind(p, a, entry, mem)
		e.setOrdersFromStarts(starts)

		refP, refS, refSt := ref.refMinPeriod(orders, 0)
		gotP, gotSt := e.minPeriod(0)
		if gotSt != refSt || (refSt == periodOK && gotP != refP) {
			t.Fatalf("iter %d: initial minPeriod (%d,%v) != reference (%d,%v)", iter, gotP, gotSt, refP, refSt)
		}
		if refSt != periodOK {
			continue
		}
		ran++
		e.bestStarts = e.appendStarts(e.bestStarts)
		refP2, refS2, refOrders := ref.refLocalSearch(ctx, orders, refP, refS)
		gotP2 := e.localSearch(ctx, gotP)
		if gotP2 != refP2 {
			t.Fatalf("iter %d: local search period %d != reference %d (assign %v starts %v mem %d)",
				iter, gotP2, refP2, a, starts, mem)
		}
		if gotP2 > gotP {
			t.Fatalf("iter %d: local search worsened %d → %d", iter, gotP, gotP2)
		}
		if !equalInts(e.bestStarts, refS2) {
			t.Fatalf("iter %d: local search starts %v != reference %v", iter, e.bestStarts, refS2)
		}
		got := ordersSnapshot(e)
		for d := range refOrders {
			if !equalInts(got[d], refOrders[d]) {
				t.Fatalf("iter %d device %d: engine orders %v != reference %v", iter, d, got[d], refOrders[d])
			}
		}
	}
	if ran < 50 {
		t.Fatalf("only %d/250 cases reached local search — generator too degenerate", ran)
	}
}

// TestLocalSearchSwapUndoInvariants audits the engine after every
// candidate (accepted, memory-rejected, or period-rejected): its order,
// position and prefix-memory buffers must match a shadow maintained by the
// reference swap rule plus a from-scratch prefix recomputation, and the
// incumbent must stay memory-feasible.
func TestLocalSearchSwapUndoInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ctx := context.Background()
	e := &periodEngine{}
	defer func() { periodAudit = nil }()
	audits := 0
	for iter := 0; iter < 300; iter++ {
		p := randomPlacement(rng)
		a := randomAssignment(rng, p)
		entry := EntryMemory(p, a, 0)
		starts := randomTopoStarts(rng, p, a)
		if iter%3 == 0 {
			starts = randomStarts(rng, p.K())
		}
		shadow := ordersFromStarts(p, starts)
		mem := sched.Unbounded
		e.bind(p, a, entry, mem)
		e.setOrdersFromStarts(starts)
		if _, st := e.minPeriod(0); st != periodOK {
			continue
		}
		period, _ := e.minPeriod(0)
		e.bestStarts = e.appendStarts(e.bestStarts)
		periodAudit = func(pe *periodEngine, u, v int, accepted bool) {
			audits++
			if accepted {
				next := refSwapEverywhere(shadow, u, v)
				if next == nil {
					t.Fatalf("iter %d: engine accepted swap (%d,%d) the reference calls non-adjacent", iter, u, v)
				}
				shadow = next
			}
			checkEngineState(t, pe, shadow)
		}
		e.localSearch(ctx, period)
		periodAudit = nil
	}
	if audits < 50 {
		t.Fatalf("only %d candidate audits ran — generator too degenerate", audits)
	}
}

// TestLocalSearchCancellationMidPass cancels the context from inside the
// audit hook after the first candidate: local search must return promptly
// with the incumbent intact — consistent buffers and a period that is
// exactly the minimum for the engine's current orders.
func TestLocalSearchCancellationMidPass(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	defer func() { periodAudit = nil }()
	e := &periodEngine{}
	exercised := false
	for iter := 0; iter < 200 && !exercised; iter++ {
		p := randomPlacement(rng)
		a := randomAssignment(rng, p)
		entry := EntryMemory(p, a, 0)
		starts := randomTopoStarts(rng, p, a)
		// Dry run: count candidates; only cases with ≥ 2 are interesting.
		dry := 0
		e.bind(p, a, entry, sched.Unbounded)
		e.setOrdersFromStarts(starts)
		if _, st := e.minPeriod(0); st != periodOK {
			continue
		}
		period, _ := e.minPeriod(0)
		e.bestStarts = e.appendStarts(e.bestStarts)
		periodAudit = func(*periodEngine, int, int, bool) { dry++ }
		e.localSearch(context.Background(), period)
		periodAudit = nil
		if dry < 2 {
			continue
		}
		exercised = true

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls := 0
		e.bind(p, a, entry, sched.Unbounded)
		e.setOrdersFromStarts(starts)
		period, _ = e.minPeriod(0)
		e.bestStarts = e.appendStarts(e.bestStarts)
		periodAudit = func(*periodEngine, int, int, bool) {
			calls++
			cancel()
		}
		got := e.localSearch(ctx, period)
		periodAudit = nil
		if calls >= dry {
			t.Fatalf("cancellation did not stop the pass: %d candidates ran (dry run: %d)", calls, dry)
		}
		// The incumbent must be self-consistent: its period is the true
		// minimum of the engine's current orders, and bestStarts matches.
		orders := ordersSnapshot(e)
		checkEngineState(t, e, orders)
		ref := newRefInstance(p, a, entry, sched.Unbounded)
		refP, refS, refSt := ref.refMinPeriod(orders, 0)
		if refSt != periodOK || refP != got {
			t.Fatalf("cancelled incumbent period %d inconsistent with its orders (ref %d, %v)", got, refP, refSt)
		}
		if !equalInts(e.bestStarts, refS) {
			t.Fatalf("cancelled incumbent starts %v != reference %v", e.bestStarts, refS)
		}
	}
	if !exercised {
		t.Fatal("no generated case evaluated ≥ 2 local-search candidates")
	}
}

// TestOrdersFromStartsTieBreak pins the deterministic (start, stage-id)
// order for duplicate start times — sort.Slice alone is unstable there —
// and checks the engine's in-place insertion sort agrees exactly.
func TestOrdersFromStartsTieBreak(t *testing.T) {
	p := &sched.Placement{Name: "ties", NumDevices: 1}
	k := 6
	p.Stages = make([]sched.Stage, k)
	p.Deps = make([][]int, k)
	for i := range p.Stages {
		p.Stages[i] = sched.Stage{Name: "s", Time: 1, Devices: []sched.DeviceID{0}}
	}
	starts := []int{2, 0, 2, 0, 1, 2}
	want := []int{1, 3, 4, 0, 2, 5} // by (start, id)
	orders := ordersFromStarts(p, starts)
	if !equalInts(orders[0], want) {
		t.Fatalf("ordersFromStarts = %v, want %v", orders[0], want)
	}
	// Repeated calls must agree bit-for-bit (the old sort had no tie-break,
	// so duplicate starts could order either way run to run).
	for i := 0; i < 20; i++ {
		again := ordersFromStarts(p, starts)
		if !equalInts(again[0], want) {
			t.Fatalf("call %d: ordersFromStarts = %v, want %v", i, again[0], want)
		}
	}
	e := &periodEngine{}
	e.bind(p, Assignment{0, 0, 0, 0, 0, 0}, []int{0}, sched.Unbounded)
	e.setOrdersFromStarts(starts)
	if got := ordersSnapshot(e)[0]; !equalInts(got, want) {
		t.Fatalf("engine setOrdersFromStarts = %v, want %v", got, want)
	}
}

// TestMinPeriodSteadyStateAllocs is the allocation regression test of the
// period machinery: on a reused engine, a full bind → relaxation check →
// order install → minPeriod cycle allocates nothing once the scratch has
// warmed up — zero allocations per feasibility probe.
func TestMinPeriodSteadyStateAllocs(t *testing.T) {
	p := vshape(t, 4)
	a := Assignment{3, 2, 1, 0, 0, 0, 0, 0}
	entry := EntryMemory(p, a, 0)
	starts := []int{0, 1, 2, 3, 4, 6, 8, 10}
	e := &periodEngine{}
	var buf []int
	run := func() {
		e.bind(p, a, entry, sched.Unbounded)
		if e.relaxedFeasible(e.lower) != true {
			t.Fatal("pipeline assignment must pass the relaxation at the lower bound")
		}
		e.setOrdersFromStarts(starts)
		if _, st := e.minPeriod(0); st != periodOK {
			t.Fatalf("minPeriod status %v", st)
		}
		buf = e.appendStarts(buf)
	}
	run() // warm the scratch
	probesPerCycle := e.probes
	if allocs := testing.AllocsPerRun(30, run); allocs != 0 {
		t.Fatalf("steady-state period cycle allocates %.1f times (want 0; %d probes/cycle)",
			allocs, probesPerCycle)
	}
}

// TestLocalSearchSteadyStateAllocs extends the allocation regression to
// the swap+undo local search: candidate evaluation must not allocate, with
// or without a memory cap. Under the cap (the largest entry memory, so the
// initial orders fit) swapMemoryOK's delta check runs on every candidate and
// turns away one that the unbounded run evaluates.
func TestLocalSearchSteadyStateAllocs(t *testing.T) {
	p := vshape(t, 4)
	a := Assignment{3, 2, 1, 0, 0, 0, 0, 0}
	entry := EntryMemory(p, a, 0)
	// Deliberately suboptimal (but dependency-consistent) initial orders:
	// every backward runs before its device's forward, so local search has
	// real swapping to do.
	starts := []int{10, 11, 12, 0, 1, 2, 3, 4}
	swapsAt := map[int]int64{}
	for _, mem := range []int{sched.Unbounded, 3} {
		e := &periodEngine{}
		var swaps int64
		run := func() {
			e.bind(p, a, entry, mem)
			e.setOrdersFromStarts(starts)
			period, st := e.minPeriod(0)
			if st != periodOK {
				t.Fatalf("memory %d: minPeriod status %v", mem, st)
			}
			e.bestStarts = e.appendStarts(e.bestStarts)
			e.localSearch(context.Background(), period)
			swaps = e.swaps
		}
		run() // warm the scratch
		if swaps == 0 {
			t.Fatalf("memory %d: local search evaluated no candidates — instance too degenerate for the test", mem)
		}
		if allocs := testing.AllocsPerRun(30, run); allocs != 0 {
			t.Fatalf("memory %d: steady-state local search allocates %.1f times (want 0; %d swaps/cycle)", mem, allocs, swaps)
		}
		swapsAt[mem] = swaps
	}
	if swapsAt[3] >= swapsAt[sched.Unbounded] {
		t.Fatalf("the memory cap turned no swap away: %d swaps under it, %d without", swapsAt[3], swapsAt[sched.Unbounded])
	}
}

// TestSolveReportsPeriodCounters: the engine's probe counters must surface
// through SolveOptions.Effort and be a pure function of the assignment.
func TestSolveReportsPeriodCounters(t *testing.T) {
	p := vshape(t, 4)
	a := Assignment{3, 2, 1, 0, 0, 0, 0, 0}
	var e1, e2 Effort
	if _, err := Solve(context.Background(), p, a, SolveOptions{Effort: &e1}); err != nil {
		t.Fatal(err)
	}
	if e1.PeriodProbes <= 0 || e1.PeriodRelaxations <= 0 {
		t.Fatalf("period counters not populated: probes=%d relaxations=%d", e1.PeriodProbes, e1.PeriodRelaxations)
	}
	if _, err := Solve(context.Background(), p, a, SolveOptions{Effort: &e2}); err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("counters not deterministic: %+v vs %+v", e1, e2)
	}
}

// TestPeriodPoolMatchesDefault: what a recycled engine last served — another
// placement's shape, another assignment's orders and fixpoint — must not
// change any output, only allocation behavior.
func TestPeriodPoolMatchesDefault(t *testing.T) {
	p, q := vshape(t, 4), vshape(t, 2)
	checked := 0
	if _, err := Enumerate(p, 3, func(a Assignment) bool {
		var baseEff, pooledEff Effort
		base, err1 := Solve(context.Background(), p, a, SolveOptions{Memory: 4, Effort: &baseEff})
		if _, err := Solve(context.Background(), q, Assignment{1, 0, 0, 0}, SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		pooled, err2 := Solve(context.Background(), p, a, SolveOptions{Memory: 4, Effort: &pooledEff})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("assign %v: err mismatch %v vs %v", a, err1, err2)
		}
		if err1 != nil {
			return true
		}
		if base.Period != pooled.Period || baseEff != pooledEff {
			t.Fatalf("assign %v: base=%+v %+v pooled=%+v %+v", a, base, baseEff, pooled, pooledEff)
		}
		if !equalInts(base.Starts, pooled.Starts) {
			t.Fatalf("assign %v: starts differ: %v vs %v", a, base.Starts, pooled.Starts)
		}
		checked++
		return checked < 40
	}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no assignments checked")
	}
}

// TestEngineShapeFollowsPlacement: an engine keeps the shape of the placement
// it last served across binds and rebuilds it, window edges included, when it
// meets another — the same numbers a fresh engine derives.
func TestEngineShapeFollowsPlacement(t *testing.T) {
	p, q := vshape(t, 4), vshape(t, 2)
	a, b := Assignment{3, 2, 1, 0, 0, 0, 0, 0}, Assignment{1, 0, 0, 0}
	e := &periodEngine{}
	e.bind(p, a, EntryMemory(p, a, 0), sched.Unbounded)
	e.buildWindow()
	e.bind(p, a, EntryMemory(p, a, 0), sched.Unbounded)
	if e.p != p || !e.winBuilt {
		t.Fatal("a second bind of the same placement rebuilt its shape")
	}
	e.bind(q, b, EntryMemory(q, b, 0), sched.Unbounded)
	fresh := &periodEngine{}
	fresh.bind(q, b, EntryMemory(q, b, 0), sched.Unbounded)
	if e.p != q || e.winBuilt || e.k != fresh.k || e.lower != fresh.lower || e.hiSum != fresh.hiSum ||
		!equalInts(e.devStages, fresh.devStages) || !equalInts(e.devHead, fresh.devHead) ||
		!equalInts(e.statTo, fresh.statTo) || !equalInts(e.statHead, fresh.statHead) {
		t.Fatalf("a second placement did not get a shape of its own: %+v vs %+v", e.periodShape, fresh.periodShape)
	}
	e.buildWindow()
	fresh.buildWindow()
	if !equalInts(e.winTo, fresh.winTo) || !equalInts(e.winHead, fresh.winHead) {
		t.Fatal("window edges of the second placement differ from a fresh engine's")
	}
}

// TestPeriodPoolConcurrentShape: solves racing on the package's engine pool and
// alternating between two placements agree with the solve made alone. Under
// -race this is the check that no two of them ever hold one engine.
func TestPeriodPoolConcurrentShape(t *testing.T) {
	p, q := vshape(t, 4), vshape(t, 2)
	a, b := Assignment{3, 2, 1, 0, 0, 0, 0, 0}, Assignment{1, 0, 0, 0}
	wantP, err := Solve(context.Background(), p, a, SolveOptions{PeriodUpperBound: 6})
	if err != nil {
		t.Fatal(err)
	}
	wantQ, err := Solve(context.Background(), q, b, SolveOptions{PeriodUpperBound: 6})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pl, as, want := p, a, wantP
				if (g+i)%3 == 0 {
					pl, as, want = q, b, wantQ
				}
				r, err := Solve(context.Background(), pl, as, SolveOptions{PeriodUpperBound: 6})
				if err != nil || r.Period != want.Period || !equalInts(r.Starts, want.Starts) {
					t.Errorf("pooled solve: %+v, %v; want period %d starts %v", r, err, want.Period, want.Starts)
					return
				}
			}
		}()
	}
	wg.Wait()
}
