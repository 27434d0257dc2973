package core

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"tessel/internal/placement"
	"tessel/internal/sched"
	"tessel/internal/solver"
)

func shape(t *testing.T, name string, d int) *sched.Placement {
	t.Helper()
	shapes, err := placement.Shapes(placement.Config{Devices: d})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := shapes[name]
	if !ok {
		t.Fatalf("unknown shape %s", name)
	}
	return p
}

// checkFull verifies the completed schedule covers each of the N×K blocks
// exactly once and passes full validation.
func checkFull(t *testing.T, res *Result, memory int) {
	t.Helper()
	p := res.Placement
	if res.Full.Len() != res.N*p.K() {
		t.Fatalf("full schedule has %d items, want %d", res.Full.Len(), res.N*p.K())
	}
	seen := map[sched.Block]bool{}
	for _, it := range res.Full.Items {
		if seen[it.Block] {
			t.Fatalf("block %v scheduled twice", it.Block)
		}
		seen[it.Block] = true
		if it.Micro < 0 || it.Micro >= res.N {
			t.Fatalf("block %v outside micro range [0,%d)", it.Block, res.N)
		}
	}
	if memory == 0 {
		memory = sched.Unbounded
	}
	if err := res.Full.Validate(sched.ValidateOptions{Memory: memory}); err != nil {
		t.Fatalf("full schedule invalid: %v", err)
	}
}

func TestSearchVShapeReachesLowerBound(t *testing.T) {
	p := shape(t, "v-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repetend.Period != res.LowerBound {
		t.Fatalf("period %d != lower bound %d", res.Repetend.Period, res.LowerBound)
	}
	if res.BubbleRate != 0 {
		t.Fatalf("bubble rate = %f, want 0", res.BubbleRate)
	}
	// Figure 11: V-shape needs N_R = D = 4 micro-batches for zero bubble.
	if res.Repetend.NR != 4 {
		t.Fatalf("NR = %d, want 4", res.Repetend.NR)
	}
	if !res.Stats.EarlyExit {
		t.Fatal("expected early exit at lower bound")
	}
	checkFull(t, res, 0)
}

func TestSearchKShapeReachesLowerBound(t *testing.T) {
	p := shape(t, "k-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repetend.Period != res.LowerBound {
		t.Fatalf("period %d != lower bound %d", res.Repetend.Period, res.LowerBound)
	}
	checkFull(t, res, 0)
}

func TestSearchMShapeReachesLowerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("m-shape sweep is slow in -short mode")
	}
	p := shape(t, "m-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repetend.Period != res.LowerBound {
		t.Fatalf("period %d != lower bound %d (NR swept %d)", res.Repetend.Period, res.LowerBound, res.Stats.NRSwept)
	}
	checkFull(t, res, 0)
}

func TestSearchMemoryCapRespected(t *testing.T) {
	p := shape(t, "v-shape", 4)
	for _, mem := range []int{1, 2, 3} {
		res, err := Search(context.Background(), p, Options{N: 6, Memory: mem})
		if err != nil {
			t.Fatalf("memory %d: %v", mem, err)
		}
		checkFull(t, res, mem)
		peaks := res.Full.PeakMemory(nil)
		for d, pk := range peaks {
			if pk > mem {
				t.Fatalf("memory %d: device %d peak %d", mem, d, pk)
			}
		}
	}
}

func TestSearchBubbleMonotoneInMemory(t *testing.T) {
	// Figure 12: lower memory capacity → larger (or equal) bubble rate.
	p := shape(t, "v-shape", 4)
	prev := 2.0
	for _, mem := range []int{1, 2, 4} {
		res, err := Search(context.Background(), p, Options{N: 6, Memory: mem})
		if err != nil {
			t.Fatalf("memory %d: %v", mem, err)
		}
		if res.BubbleRate > prev+1e-9 {
			t.Fatalf("bubble rate increased with memory: %f at M=%d (prev %f)", res.BubbleRate, mem, prev)
		}
		prev = res.BubbleRate
	}
}

func TestSearchBubbleMonotoneInNR(t *testing.T) {
	// Figure 11: more repetend micro-batches → smaller (or equal) bubble.
	p := shape(t, "v-shape", 4)
	prev := 2.0
	for nr := 1; nr <= 4; nr++ {
		res, err := Search(context.Background(), p, Options{N: 6, MaxNR: nr})
		if err != nil {
			t.Fatalf("nr %d: %v", nr, err)
		}
		if res.BubbleRate > prev+1e-9 {
			t.Fatalf("bubble rate increased with NR: %f at NR=%d (prev %f)", res.BubbleRate, nr, prev)
		}
		prev = res.BubbleRate
	}
}

func TestSearchLazyMatchesEager(t *testing.T) {
	// §V: lazy search "significantly reduces the overall search time
	// without changing the searched results".
	p := shape(t, "v-shape", 4)
	lazy, err := Search(context.Background(), p, Options{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	eager, err := Search(context.Background(), p, Options{N: 6, DisableLazy: true})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Repetend.Period != eager.Repetend.Period {
		t.Fatalf("lazy period %d != eager period %d", lazy.Repetend.Period, eager.Repetend.Period)
	}
}

func TestSearchInferencePlacement(t *testing.T) {
	p := placement.Inference(shape(t, "k-shape", 4))
	res, err := Search(context.Background(), p, Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkFull(t, res, 0)
	if res.Repetend.Period < res.LowerBound {
		t.Fatalf("period %d below lower bound %d", res.Repetend.Period, res.LowerBound)
	}
}

func TestSearchSmallNFallsBackToTimeOptimal(t *testing.T) {
	p := shape(t, "v-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 2 {
		t.Fatalf("N = %d", res.N)
	}
	checkFull(t, res, 0)
}

func TestSearchDefaultN(t *testing.T) {
	p := shape(t, "v-shape", 4)
	res, err := Search(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3*res.Repetend.NR {
		t.Fatalf("default N = %d, want %d", res.N, 3*res.Repetend.NR)
	}
	checkFull(t, res, 0)
}

func TestSearchRejectsInvalidPlacement(t *testing.T) {
	p := shape(t, "v-shape", 4)
	p.Stages[0].Time = 0
	if _, err := Search(context.Background(), p, Options{}); err == nil {
		t.Fatal("invalid placement accepted")
	}
}

// TestSearchRefusesMaxNROverLimit: the search arithmetic is proven free of
// overflow for N_R ≤ 2^18, so a larger cap is an error before any work, and
// the limit itself searches (v-shape stops at the lower bound long before).
func TestSearchRefusesMaxNROverLimit(t *testing.T) {
	p := shape(t, "v-shape", 4)
	if res, err := Search(context.Background(), p, Options{MaxNR: 1<<18 + 1}); err == nil || res != nil {
		t.Fatalf("max N_R 2^18+1: res %v, err %v; want an error", res, err)
	}
	if _, err := Search(context.Background(), p, Options{MaxNR: 1 << 18}); err != nil {
		t.Fatalf("max N_R 2^18: %v", err)
	}
}

func TestMaxInflight(t *testing.T) {
	p := shape(t, "v-shape", 4)
	// Each device holds +1 activation per micro-batch.
	if got := MaxInflight(p, 3); got != 3 {
		t.Fatalf("MaxInflight(3) = %d, want 3", got)
	}
	if got := MaxInflight(p, 100); got != DefaultMaxNR {
		t.Fatalf("MaxInflight(100) = %d, want cap %d", got, DefaultMaxNR)
	}
	if got := MaxInflight(p, sched.Unbounded); got != DefaultMaxNR {
		t.Fatalf("unbounded = %d", got)
	}
	if got := MaxInflight(p, 0); got != DefaultMaxNR {
		t.Fatalf("zero = %d", got)
	}
}

func TestTimeOptimalMatchesKnownOptimum(t *testing.T) {
	p := shape(t, "v-shape", 4)
	s, res, err := TimeOptimal(context.Background(), p, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Chain 12 + one extra micro-batch at bottleneck 3.
	if res.Makespan != 15 {
		t.Fatalf("makespan = %d, want 15", res.Makespan)
	}
	if err := s.Validate(sched.ValidateOptions{Memory: sched.Unbounded}); err != nil {
		t.Fatal(err)
	}
}

// TestTimeOptimalEdges: no micro-batches is the empty schedule, proven; a
// memory cap below a single forward's footprint is an error that names the
// placement and the micro-batch count.
func TestTimeOptimalEdges(t *testing.T) {
	p := shape(t, "v-shape", 4)
	s, res, err := TimeOptimal(context.Background(), p, 0, Options{})
	if err != nil || s == nil || s.Len() != 0 || !res.Feasible || !res.Optimal {
		t.Fatalf("n = 0: schedule %v, result %+v, err %v; want an empty schedule, feasible and optimal", s, res, err)
	}
	shapes, err := placement.Shapes(placement.Config{Devices: 4, FwdMem: 2, BwdMem: -2})
	if err != nil {
		t.Fatal(err)
	}
	p = shapes["v-shape"]
	s, _, err = TimeOptimal(context.Background(), p, 3, Options{Memory: 1})
	if err == nil || s != nil || !strings.Contains(err.Error(), p.Name) || !strings.Contains(err.Error(), "3 micro-batches") {
		t.Fatalf("memory 1 under forwards of 2: schedule %v, err %v; want an error naming %q and 3 micro-batches", s, err, p.Name)
	}
}

// TestCompletionNodes pins the completion's solver work at Workers 1, N = 12:
// the lazy gate's checks of every repetend that became the best and the
// final warmup and cooldown solves, none of which SolverNodes counts. On the
// paper's mT5 shape (nn-shape) the warmup's optimality proof is most of a
// cold search. An Extend that the completion template answers adds nothing.
func TestCompletionNodes(t *testing.T) {
	for _, c := range []struct {
		shape                    string
		warmup, cooldown, solver int64
	}{
		{"nn-shape", 270915, 145, 392},
		{"m-shape", 470, 224, 90},
	} {
		res, err := Search(context.Background(), shape(t, c.shape, 4), Options{N: 12, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.WarmupNodes != c.warmup || st.CooldownNodes != c.cooldown || st.SolverNodes != c.solver {
			t.Errorf("%s: warmup %d, cooldown %d, repetend %d nodes; want %d, %d, %d",
				c.shape, st.WarmupNodes, st.CooldownNodes, st.SolverNodes, c.warmup, c.cooldown, c.solver)
		}
		ext, err := Extend(context.Background(), res, 12, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ext.Stats.WarmupNodes != 0 || ext.Stats.CooldownNodes != 0 {
			t.Errorf("%s: a replayed completion counted %d warmup and %d cooldown nodes", c.shape, ext.Stats.WarmupNodes, ext.Stats.CooldownNodes)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	p := shape(t, "v-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Assignments == 0 || st.Solved == 0 || st.Improved == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.Total <= 0 || st.Phase.Repetend <= 0 {
		t.Fatalf("timings not populated: %+v", st)
	}
	if st.NRSwept < 1 {
		t.Fatalf("NRSwept = %d", st.NRSwept)
	}
}

// TestSearchPropertyFullAlwaysValid: across shapes, memory budgets and N,
// the completed schedule always covers every block exactly once and
// validates under the memory cap.
func TestSearchPropertyFullAlwaysValid(t *testing.T) {
	if testing.Short() {
		t.Skip("property search is slow in -short mode")
	}
	names := []string{"v-shape", "k-shape"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := shape(t, names[rng.Intn(len(names))], 4)
		mem := 2 + rng.Intn(6)
		n := 1 + rng.Intn(10)
		res, err := Search(context.Background(), p, Options{N: n, Memory: mem, MaxNR: 4})
		if err != nil {
			// Memory can be too tight for any repetend; that is a valid
			// outcome, not a bug.
			return true
		}
		if res.Full.Len() != res.N*p.K() {
			t.Logf("seed %d: %d items, want %d", seed, res.Full.Len(), res.N*p.K())
			return false
		}
		if err := res.Full.Validate(sched.ValidateOptions{Memory: mem}); err != nil {
			t.Logf("seed %d (%s mem=%d n=%d): %v", seed, p.Name, mem, n, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchAssignmentBudgetTruncates(t *testing.T) {
	p := shape(t, "v-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 6, MaxAssignments: 3, MaxNR: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Fatal("expected truncation with a 3-assignment budget")
	}
	checkFull(t, res, 0)
}

func TestExtendToLargerN(t *testing.T) {
	p := shape(t, "v-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 6, Memory: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, 6, 10, 20, 40} {
		ext, err := Extend(context.Background(), res, n, Options{Memory: 4})
		if err != nil {
			t.Fatalf("extend to %d: %v", n, err)
		}
		if ext.N != n {
			t.Fatalf("N = %d", ext.N)
		}
		checkFull(t, ext, 4)
	}
}

func TestExtendMakespanGrowsByPeriod(t *testing.T) {
	// §III-C: adding one micro-batch in the steady state adds exactly one
	// repetend period to the makespan.
	p := shape(t, "v-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Extend(context.Background(), res, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extend(context.Background(), res, 21, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if delta := b.Makespan - a.Makespan; delta != res.Repetend.Period {
		t.Fatalf("makespan delta %d != period %d", delta, res.Repetend.Period)
	}
}

func TestExtendErrors(t *testing.T) {
	if _, err := Extend(context.Background(), nil, 5, Options{}); err == nil {
		t.Fatal("nil result accepted")
	}
	p := shape(t, "v-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extend(context.Background(), res, 0, Options{}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// TestSearchSolverBudgetTruncates: exhausting the per-solve node budget —
// not just the assignment-enumeration budget — must surface as
// Stats.Truncated, so callers can tell a proven result from a
// budget-degraded one.
func TestSearchSolverBudgetTruncates(t *testing.T) {
	p := shape(t, "v-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 6, MaxNR: 3, SolverNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Fatal("node-budget exhaustion inside repetend solves not reported as truncated")
	}
	checkFull(t, res, 0)
	full, err := Search(context.Background(), p, Options{N: 6, MaxNR: 3})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Truncated {
		t.Fatal("unbudgeted search reported truncation")
	}
}

// TestSearchSolverEffortStats: the memo-hit counter and node-throughput
// accessor must be populated by a pruning-heavy search. It runs on X-shape:
// the barrier bound proves m-shape's instance solves without a memo hit.
func TestSearchSolverEffortStats(t *testing.T) {
	p := shape(t, "x-shape", 4)
	res, err := Search(context.Background(), p, Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SolverNodes == 0 {
		t.Fatal("SolverNodes not populated")
	}
	if res.Stats.SolverMemoHits <= 0 {
		t.Fatal("SolverMemoHits not populated")
	}
	if res.Stats.SolverMemoHits > res.Stats.SolverNodes {
		t.Fatalf("memo hits %d exceed nodes %d", res.Stats.SolverMemoHits, res.Stats.SolverNodes)
	}
	if res.Stats.NodesPerSec() <= 0 {
		t.Fatalf("NodesPerSec = %f, want > 0", res.Stats.NodesPerSec())
	}
	if (Stats{}).NodesPerSec() != 0 {
		t.Fatal("zero Stats must report zero throughput")
	}
}

// TestNN6iWarmupProvenAtRoot pins the solve that set cold_period's p95: the
// 45-task warmup of nn6i's winning repetend, in the task order solvePhase
// hands it over. The solver's first descent already finds its optimum
// (makespan 17); the barrier bound — nn-shape's embedding occupies every device — raises the
// root bound from 15 to 17, so the proof takes one node instead of 32,146.
func TestNN6iWarmupProvenAtRoot(t *testing.T) {
	p, opts := catalogPlacement(t, "nn6i")
	opts.N = 12
	res, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := warmupBlocks(p, res.Repetend.Assign)
	slices.SortFunc(warm, func(a, b sched.Block) int {
		return cmp.Or(cmp.Compare(a.Micro, b.Micro), cmp.Compare(a.Stage, b.Stage))
	})
	tasks, err := solver.BuildTasks(p, warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := solver.Solve(context.Background(), tasks, solver.Options{NumDevices: p.NumDevices, MaxNodes: DefaultSolverNodes})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 45 || !sres.Optimal || sres.Makespan != 17 || sres.Nodes != 1 {
		t.Fatalf("nn6i warmup: %d tasks, optimal %v, makespan %d in %d nodes; want 45 tasks proven at 17 in 1 node",
			len(tasks), sres.Optimal, sres.Makespan, sres.Nodes)
	}
}
