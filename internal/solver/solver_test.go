package solver

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"tessel/internal/placement"
	"tessel/internal/sched"
)

// vshape builds a V-shape placement on d devices with fwd/bwd times and
// activation memory +1/−1 per stage.
func vshape(d, fwd, bwd int) *sched.Placement {
	p := &sched.Placement{Name: "v", NumDevices: d}
	for i := 0; i < d; i++ {
		p.Stages = append(p.Stages, sched.Stage{Name: "f", Kind: sched.Forward, Time: fwd, Mem: 1, Devices: []sched.DeviceID{sched.DeviceID(i)}})
	}
	for i := d - 1; i >= 0; i-- {
		p.Stages = append(p.Stages, sched.Stage{Name: "b", Kind: sched.Backward, Time: bwd, Mem: -1, Devices: []sched.DeviceID{sched.DeviceID(i)}})
	}
	p.Deps = make([][]int, 2*d)
	for i := 0; i < 2*d-1; i++ {
		p.Deps[i] = []int{i + 1}
	}
	return p
}

// searchTasks builds the whole-problem X-shape task system (4 devices, n
// micro-batches) for tests that need a solve the lower bounds do not decide.
// V- and K-shape whole problems close at the root since the one-machine bound,
// and the barrier bound cut M-shape n = 3 from 4,886 nodes to 1,905; X-shape
// has no all-device stage for it to use and stays exponential (n = 3: 6,257
// nodes, n = 5: 31,361, n = 6: 99,607). The helper fails the test when the
// solver proves the instance in fewer than minNodes nodes, so a later bound
// that flattens this family too is reported by every test seated on it instead
// of letting them pass on a one-node search.
func searchTasks(t testing.TB, n int, minNodes int64) []Task {
	t.Helper()
	return needsSearch(t, searchShape(t), n, minNodes)
}

// searchShape is the placement searchTasks draws from.
func searchShape(t testing.TB) *sched.Placement {
	t.Helper()
	p, err := placement.XShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// needsSearch builds p's whole problem with n micro-batches and fails the test
// unless the solver needs at least minNodes nodes to prove it.
func needsSearch(t testing.TB, p *sched.Placement, n int, minNodes int64) []Task {
	t.Helper()
	tasks, err := BuildTasks(p, AllBlocks(p, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), tasks, Options{MaxNodes: minNodes})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatalf("%s n=%d is proven in %d nodes; this test needs a search of at least %d", p.Name, n, res.Nodes, minNodes)
	}
	return tasks
}

// vshapeTasks builds the v-shape 4-device task system with n micro-batches,
// which the lower bounds decide at the root: the first descent plus one node.
func vshapeTasks(t testing.TB, n int) []Task {
	t.Helper()
	p, err := placement.VShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := BuildTasks(p, AllBlocks(p, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

func mustSolve(t *testing.T, tasks []Task, opts Options) Result {
	t.Helper()
	res, err := Solve(context.Background(), tasks, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

// schedule is the schedule a solve result gives tasks built for p.
func schedule(p *sched.Placement, tasks []Task, res Result) *sched.Schedule {
	s := sched.NewSchedule(p)
	for i, t := range tasks {
		s.Add(t.ID.Stage, t.ID.Micro, res.Starts[i])
	}
	return s
}

func validate(t *testing.T, p *sched.Placement, tasks []Task, res Result, mem int, initMem []int) {
	t.Helper()
	if !res.Feasible || len(res.Starts) != len(tasks) {
		t.Fatalf("result %+v for %d tasks", res, len(tasks))
	}
	if err := schedule(p, tasks, res).Validate(sched.ValidateOptions{Memory: mem, InitialMem: initMem}); err != nil {
		t.Fatalf("solver produced invalid schedule: %v", err)
	}
	// Release times must be honored.
	for i, task := range tasks {
		if res.Starts[i] < task.Release {
			t.Fatalf("task %d starts %d before release %d", i, res.Starts[i], task.Release)
		}
	}
}

func TestSolveEmpty(t *testing.T) {
	res, err := Solve(context.Background(), nil, Options{})
	if err != nil || !res.Feasible || !res.Optimal {
		t.Fatalf("empty solve: res=%+v err=%v", res, err)
	}
}

func TestSolveSingleTask(t *testing.T) {
	tasks := []Task{{ID: sched.Block{}, Time: 5, Devices: []sched.DeviceID{0}}}
	res := mustSolve(t, tasks, Options{})
	if !res.Feasible || res.Makespan != 5 || res.Starts[0] != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestSolveChainRespectDeps(t *testing.T) {
	// Two-task chain on different devices: makespan is the sum of times.
	tasks := []Task{
		{ID: sched.Block{Stage: 0}, Time: 3, Devices: []sched.DeviceID{0}},
		{ID: sched.Block{Stage: 1}, Time: 4, Devices: []sched.DeviceID{1}, Preds: []int{0}},
	}
	res := mustSolve(t, tasks, Options{})
	if res.Makespan != 7 {
		t.Fatalf("makespan = %d, want 7", res.Makespan)
	}
}

func TestSolveParallelIndependent(t *testing.T) {
	// Independent tasks on distinct devices run concurrently.
	tasks := []Task{
		{ID: sched.Block{Stage: 0}, Time: 3, Devices: []sched.DeviceID{0}},
		{ID: sched.Block{Stage: 1}, Time: 4, Devices: []sched.DeviceID{1}},
	}
	res := mustSolve(t, tasks, Options{})
	if res.Makespan != 4 {
		t.Fatalf("makespan = %d, want 4", res.Makespan)
	}
}

func TestSolveExclusiveDevice(t *testing.T) {
	// Same device forces serialization.
	tasks := []Task{
		{ID: sched.Block{Stage: 0}, Time: 3, Devices: []sched.DeviceID{0}},
		{ID: sched.Block{Stage: 1}, Time: 4, Devices: []sched.DeviceID{0}},
	}
	res := mustSolve(t, tasks, Options{})
	if res.Makespan != 7 {
		t.Fatalf("makespan = %d, want 7", res.Makespan)
	}
}

func TestSolveMultiDeviceBlock(t *testing.T) {
	// A tensor-parallel block occupying both devices serializes with both.
	tasks := []Task{
		{ID: sched.Block{Stage: 0}, Time: 2, Devices: []sched.DeviceID{0, 1}},
		{ID: sched.Block{Stage: 1}, Time: 3, Devices: []sched.DeviceID{0}},
		{ID: sched.Block{Stage: 2}, Time: 3, Devices: []sched.DeviceID{1}},
	}
	res := mustSolve(t, tasks, Options{})
	if res.Makespan != 5 {
		t.Fatalf("makespan = %d, want 5 (TP block then two parallel)", res.Makespan)
	}
}

func TestSolveRelease(t *testing.T) {
	tasks := []Task{{ID: sched.Block{}, Time: 2, Devices: []sched.DeviceID{0}, Release: 10}}
	res := mustSolve(t, tasks, Options{})
	if res.Starts[0] != 10 || res.Makespan != 12 {
		t.Fatalf("res = %+v", res)
	}
}

func TestSolveDeviceReady(t *testing.T) {
	tasks := []Task{{ID: sched.Block{}, Time: 2, Devices: []sched.DeviceID{0}}}
	res := mustSolve(t, tasks, Options{DeviceReady: []int{7}, NumDevices: 1})
	if res.Starts[0] != 7 {
		t.Fatalf("start = %d, want 7", res.Starts[0])
	}
}

func TestSolveMemoryForcesInterleave(t *testing.T) {
	// Two +1 forwards and two −1 backwards on one device with capacity 1:
	// a backward must run between the forwards.
	fwd := func(m int) Task {
		return Task{ID: sched.Block{Stage: 0, Micro: m}, Time: 1, Mem: 1, Devices: []sched.DeviceID{0}}
	}
	tasks := []Task{
		fwd(0), fwd(1),
		{ID: sched.Block{Stage: 1, Micro: 0}, Time: 1, Mem: -1, Devices: []sched.DeviceID{0}, Preds: []int{0}},
		{ID: sched.Block{Stage: 1, Micro: 1}, Time: 1, Mem: -1, Devices: []sched.DeviceID{0}, Preds: []int{1}},
	}
	res := mustSolve(t, tasks, Options{Memory: 1})
	if !res.Feasible {
		t.Fatal("should be feasible with interleaving")
	}
	// Verify the order: f0 b0 f1 b1 (memory never exceeds 1).
	mem, peak := 0, 0
	type ev struct{ start, delta int }
	var evs []ev
	for i := range tasks {
		evs = append(evs, ev{res.Starts[i], tasks[i].Mem})
	}
	for i := 0; i < len(evs); i++ {
		for j := i + 1; j < len(evs); j++ {
			if evs[j].start < evs[i].start {
				evs[i], evs[j] = evs[j], evs[i]
			}
		}
	}
	for _, e := range evs {
		mem += e.delta
		if mem > peak {
			peak = mem
		}
	}
	if peak > 1 {
		t.Fatalf("peak memory %d exceeds capacity 1", peak)
	}
}

func TestSolveMemoryInfeasible(t *testing.T) {
	// A single +2 block with capacity 1 is infeasible and proven so.
	tasks := []Task{{ID: sched.Block{}, Time: 1, Mem: 2, Devices: []sched.DeviceID{0}}}
	res := mustSolve(t, tasks, Options{Memory: 1})
	if res.Feasible {
		t.Fatal("should be infeasible")
	}
	if !res.Optimal {
		t.Fatal("infeasibility should be proven")
	}
	// Two +2 blocks under capacity 3: the first fits, so it is the search,
	// not the root, that runs out of candidates.
	tasks = append(tasks, Task{ID: sched.Block{Stage: 1}, Time: 1, Mem: 2, Devices: []sched.DeviceID{0}})
	res = mustSolve(t, tasks, Options{Memory: 3})
	if res.Feasible || !res.Optimal {
		t.Fatalf("two +2 blocks under capacity 3: %+v, want proven infeasible", res)
	}
}

func TestSolveInitialMemory(t *testing.T) {
	tasks := []Task{{ID: sched.Block{}, Time: 1, Mem: 1, Devices: []sched.DeviceID{0}}}
	res := mustSolve(t, tasks, Options{Memory: 1, InitialMem: []int{1}, NumDevices: 1})
	if res.Feasible {
		t.Fatal("initial memory should make this infeasible")
	}
}

func TestSolveSatisfyOnly(t *testing.T) {
	p := vshape(4, 1, 2)
	tasks, err := BuildTasks(p, AllBlocks(p, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustSolve(t, tasks, Options{SatisfyOnly: true})
	if !res.Feasible || !res.Optimal {
		t.Fatalf("satisfy-only failed: %+v", res)
	}
	validate(t, p, tasks, res, sched.Unbounded, nil)
}

func TestSolveCycleDetected(t *testing.T) {
	tasks := []Task{
		{ID: sched.Block{Stage: 0}, Time: 1, Devices: []sched.DeviceID{0}, Preds: []int{1}},
		{ID: sched.Block{Stage: 1}, Time: 1, Devices: []sched.DeviceID{0}, Preds: []int{0}},
	}
	if _, err := Solve(context.Background(), tasks, Options{}); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestSolveRejectsBadTask(t *testing.T) {
	if _, err := Solve(context.Background(), []Task{{Time: 0, Devices: []sched.DeviceID{0}}}, Options{}); err == nil {
		t.Fatal("zero time accepted")
	}
	if _, err := Solve(context.Background(), []Task{{Time: 1}}, Options{}); err == nil {
		t.Fatal("no devices accepted")
	}
	if _, err := Solve(context.Background(), []Task{{Time: 1, Devices: []sched.DeviceID{0}, Preds: []int{5}}}, Options{}); err == nil {
		t.Fatal("bad pred accepted")
	}
	if _, err := Solve(context.Background(), []Task{{Time: 1, Devices: []sched.DeviceID{-1}}}, Options{}); err == nil {
		t.Fatal("negative device accepted")
	}
}

func TestSolveVShapeOneMicroBatch(t *testing.T) {
	// One micro-batch of V-shape is a pure chain: makespan = sum of times.
	p := vshape(4, 1, 2)
	tasks, err := BuildTasks(p, AllBlocks(p, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustSolve(t, tasks, Options{})
	if res.Makespan != 4*1+4*2 {
		t.Fatalf("makespan = %d, want 12", res.Makespan)
	}
	validate(t, p, tasks, res, sched.Unbounded, nil)
}

func TestSolveVShapeMultipleMicroBatches(t *testing.T) {
	// Known optimum for V-shape pipelines: makespan = chain + (N−1)·bottleneck.
	p := vshape(3, 1, 2)
	for n := 2; n <= 3; n++ {
		tasks, err := BuildTasks(p, AllBlocks(p, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		res := mustSolve(t, tasks, Options{})
		want := 9 + (n-1)*3
		if res.Makespan != want {
			t.Fatalf("n=%d makespan = %d, want %d", n, res.Makespan, want)
		}
		if !res.Optimal {
			t.Fatalf("n=%d not proven optimal", n)
		}
		validate(t, p, tasks, res, sched.Unbounded, nil)
	}
}

func TestSolveBudgetTruncation(t *testing.T) {
	tasks := searchTasks(t, 3, 4000)
	res := mustSolve(t, tasks, Options{MaxNodes: 2})
	// The first descent's incumbent still gives a feasible schedule.
	if !res.Feasible {
		t.Fatal("first-descent incumbent missing under tiny budget")
	}
	if res.Optimal {
		t.Fatal("tiny budget cannot prove optimality")
	}
	validate(t, searchShape(t), tasks, res, sched.Unbounded, nil)
}

func TestSolveTimeout(t *testing.T) {
	p := vshape(4, 1, 2)
	tasks, err := BuildTasks(p, AllBlocks(p, 6), nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res := mustSolve(t, tasks, Options{Timeout: 50 * time.Millisecond})
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not honored")
	}
	if !res.Feasible {
		t.Fatal("first-descent incumbent missing")
	}
}

// TestSolveMatchesBruteForce is the key correctness property: on random
// small instances the B&B optimum equals exhaustive enumeration.
func TestSolveMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tasks, opts := randomInstance(rng)
		res, err := Solve(context.Background(), tasks, opts)
		if err != nil {
			return false
		}
		want, feasible := bruteForce(tasks, opts)
		if feasible != res.Feasible {
			t.Logf("seed %d: feasibility mismatch solver=%v brute=%v", seed, res.Feasible, feasible)
			return false
		}
		if feasible && res.Makespan != want {
			t.Logf("seed %d: makespan solver=%d brute=%d", seed, res.Makespan, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestSolverOutputAlwaysValid: every feasible result converts to a schedule
// passing full validation.
func TestSolverOutputAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := vshape(2+rng.Intn(3), 1+rng.Intn(2), 1+rng.Intn(3))
		n := 1 + rng.Intn(3)
		tasks, err := BuildTasks(p, AllBlocks(p, n), nil)
		if err != nil {
			return false
		}
		mem := 1 + rng.Intn(4)
		res, err := Solve(context.Background(), tasks, Options{Memory: mem, NumDevices: p.NumDevices})
		if err != nil {
			return false
		}
		if !res.Feasible {
			return true // nothing to validate
		}
		return len(res.Starts) == len(tasks) && schedule(p, tasks, res).Validate(sched.ValidateOptions{Memory: mem}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTasksDeps(t *testing.T) {
	p := vshape(2, 1, 2)
	blocks := AllBlocks(p, 2)
	tasks, err := BuildTasks(p, blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 8 {
		t.Fatalf("got %d tasks, want 8", len(tasks))
	}
	// Cross-micro-batch independence: each task's preds share its micro.
	for _, task := range tasks {
		for _, pi := range task.Preds {
			if tasks[pi].ID.Micro != task.ID.Micro {
				t.Fatalf("cross-micro dependency %v → %v", tasks[pi].ID, task.ID)
			}
		}
	}
}

func TestBuildTasksReleases(t *testing.T) {
	p := vshape(2, 1, 2)
	blocks := []sched.Block{{Stage: 0, Micro: 0}}
	tasks, err := BuildTasks(p, blocks, map[sched.Block]int{{Stage: 0, Micro: 0}: 9})
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].Release != 9 {
		t.Fatalf("release = %d, want 9", tasks[0].Release)
	}
}

func TestBuildTasksErrors(t *testing.T) {
	p := vshape(2, 1, 2)
	if _, err := BuildTasks(nil, nil, nil); err == nil {
		t.Fatal("nil placement accepted")
	}
	if _, err := BuildTasks(p, []sched.Block{{Stage: 99, Micro: 0}}, nil); err == nil {
		t.Fatal("out-of-range stage accepted")
	}
	if _, err := BuildTasks(p, []sched.Block{{Stage: 0, Micro: 0}, {Stage: 0, Micro: 0}}, nil); err == nil {
		t.Fatal("duplicate block accepted")
	}
}

// TestSolveCancellation: cancelling the context mid-solve aborts within a
// few hundred node expansions (microseconds each) and returns ctx's error.
func TestSolveCancellation(t *testing.T) {
	tasks := searchTasks(t, 7, 100000)
	ctx, cancel := context.WithCancel(context.Background())
	memoOn = false
	defer func() { memoOn = true }()
	done := make(chan error, 1)
	go func() {
		_, err := Solve(ctx, tasks, Options{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("solver did not stop within 2s of cancellation")
	}
}

// TestSolvePreCancelled: an already-expired context short-circuits.
func TestSolvePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := []Task{{ID: sched.Block{}, Time: 1, Devices: []sched.DeviceID{0}}}
	if _, err := Solve(ctx, tasks, Options{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSolveIgnoresWorkers: Options.Workers is a field Solve does not read —
// there is one search engine — so a caller that still sets it gets the
// Result of the same call without it, counters included, optimizing and
// SatisfyOnly.
func TestSolveIgnoresWorkers(t *testing.T) {
	tasks := searchTasks(t, 3, 4000)
	for _, satisfy := range []bool{false, true} {
		base := mustSolve(t, tasks, Options{SatisfyOnly: satisfy})
		res := mustSolve(t, tasks, Options{SatisfyOnly: satisfy, Workers: 2})
		base.Elapsed, res.Elapsed = 0, 0
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("SatisfyOnly=%v: Workers 2 returned %+v, Workers 0 %+v", satisfy, res, base)
		}
	}
}

// TestSolveWithoutIncumbent pins the search that starts with no incumbent —
// a memory cap under which the first descent deadlocks — to its counters and
// its start vector. The start vectors are the ones recorded when prunedOrMemo
// still ran pathBound ahead of the memo probe on that path; the barrier bound
// took n = 3 from 3,022 nodes and 1,279 memo hits to 915 and 286 and left
// every start where it was.
func TestSolveWithoutIncumbent(t *testing.T) {
	p, err := placement.MShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n               int
		opts            Options
		makespan        int
		nodes, memoHits int64
		starts          []int
	}{
		{n: 3, opts: Options{Memory: 5}, makespan: 42, nodes: 915, memoHits: 286,
			starts: []int{0, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 19, 1, 10, 11, 14, 15, 21, 22, 24, 30, 32, 34, 38, 2, 18, 24, 25, 26, 27, 28, 30, 32, 34, 36, 40}},
		{n: 4, opts: Options{Memory: 8, SatisfyOnly: true}, makespan: 51, nodes: 105, memoHits: 28,
			starts: []int{0, 4, 5, 6, 7, 10, 11, 13, 16, 18, 20, 43, 1, 5, 6, 7, 8, 22, 23, 31, 33, 35, 37, 45, 2, 6, 7, 8, 9, 25, 26, 33, 35, 37, 39, 47, 3, 13, 14, 15, 16, 28, 29, 35, 37, 39, 41, 49}},
	} {
		tasks, err := BuildTasks(p, AllBlocks(p, tc.n), nil)
		if err != nil {
			t.Fatal(err)
		}
		s := &searcher{}
		if err := s.reset(context.Background(), tasks, tc.opts); err != nil {
			t.Fatal(err)
		}
		if s.descend(); s.bestSet {
			t.Fatalf("n=%d %+v: the first descent found a schedule; this test needs a solve that starts without one", tc.n, tc.opts)
		}
		res := mustSolve(t, tasks, tc.opts)
		if !res.Optimal || res.Makespan != tc.makespan || res.Nodes != tc.nodes || res.MemoHits != tc.memoHits || !reflect.DeepEqual(res.Starts, tc.starts) {
			t.Fatalf("n=%d %+v: makespan %d nodes %d memo hits %d starts %#v, want %d / %d / %d / %v",
				tc.n, tc.opts, res.Makespan, res.Nodes, res.MemoHits, res.Starts, tc.makespan, tc.nodes, tc.memoHits, tc.starts)
		}
		validate(t, p, tasks, res, tc.opts.Memory, nil)
	}
}

// TestSolveIgnoresIdleDeviceReady: the solver reads a device's readiness
// only through the devices of a task (a candidate's start, the path and load
// bounds) and as one component of every dominance state, where a device no
// task runs on holds the same value in all of them. So its readiness cannot
// change a solve: catalog placements with one device more than they use,
// under memory caps and with the used devices ready at staggered times,
// solve to the same starts, makespan, node and memo-hit counts whatever the
// idle device's readiness — the premise of the completion template's time
// base (internal/core), which leaves such a device out.
func TestSolveIgnoresIdleDeviceReady(t *testing.T) {
	for _, c := range []struct {
		build  func(placement.Config) (*sched.Placement, error)
		memory int
	}{{placement.MShape, sched.Unbounded}, {placement.VShape, 4}, {placement.KShape, sched.Unbounded}, {placement.XShape, 8}} {
		p, err := c.build(placement.Config{Devices: 4})
		if err != nil {
			t.Fatal(err)
		}
		p.NumDevices++
		idle := p.NumDevices - 1
		tasks, err := BuildTasks(p, AllBlocks(p, 3), nil)
		if err != nil {
			t.Fatal(err)
		}
		var want Result
		for i, r := range []int{0, 3, 40, 1 << 20} {
			ready := []int{7, 9, 7, 12, r}
			res, err := Solve(context.Background(), tasks, Options{NumDevices: p.NumDevices, Memory: c.memory, DeviceReady: ready})
			if err != nil {
				t.Fatal(err)
			}
			res.Elapsed = 0
			if i == 0 {
				want = res
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: device %d ready at %d: %+v, at 0: %+v", p.Name, idle, r, res, want)
			}
		}
	}
}
