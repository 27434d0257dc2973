package solver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tessel/internal/sched"
)

// The soundness harness of the solver's pruning. Every lower-bound term, and
// the memo's dominance rule, is held at every state of the search tree of
// small random instances to the best completion of that state
// (TestBoundsSound); each mechanism with a switch is solved on and off against
// brute force (TestBarrierBoundDifferential, TestMemoDifferential,
// TestSymmetryDifferential). The instances have at most eight tasks, so brute
// force over every task order is the ground truth.

// without runs f with one of the mechanism switches off.
func without(on *bool, f func()) {
	*on = false
	defer func() { *on = true }()
	f()
}

// bruteForce enumerates every precedence-feasible order with earliest-start
// replay — the reference optimum for small instances.
func bruteForce(tasks []Task, opts Options) (int, bool) {
	n := len(tasks)
	d := opts.NumDevices
	for i := range tasks {
		for _, dev := range tasks[i].Devices {
			if int(dev)+1 > d {
				d = int(dev) + 1
			}
		}
	}
	mem := opts.Memory
	if mem == 0 {
		mem = Unbounded
	}
	best := -1
	scheduled := make([]bool, n)
	finish := make([]int, n)
	devAvail := make([]int, d)
	devMem := make([]int, d)
	if opts.InitialMem != nil {
		copy(devMem, opts.InitialMem)
	}
	if opts.DeviceReady != nil {
		copy(devAvail, opts.DeviceReady)
	}
	var rec func(done, makespan int)
	rec = func(done, makespan int) {
		if done == n {
			if best < 0 || makespan < best {
				best = makespan
			}
			return
		}
		for t := 0; t < n; t++ {
			if scheduled[t] {
				continue
			}
			ok := true
			for _, p := range tasks[t].Preds {
				if !scheduled[p] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, dev := range tasks[t].Devices {
				if devMem[dev]+tasks[t].Mem > mem {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			st := tasks[t].Release
			for _, dev := range tasks[t].Devices {
				if devAvail[dev] > st {
					st = devAvail[dev]
				}
			}
			for _, p := range tasks[t].Preds {
				if finish[p] > st {
					st = finish[p]
				}
			}
			fin := st + tasks[t].Time
			var savedAvail []int
			for _, dev := range tasks[t].Devices {
				savedAvail = append(savedAvail, devAvail[dev])
				devAvail[dev] = fin
				devMem[dev] += tasks[t].Mem
			}
			scheduled[t] = true
			finish[t] = fin
			ms := makespan
			if fin > ms {
				ms = fin
			}
			rec(done+1, ms)
			scheduled[t] = false
			for i, dev := range tasks[t].Devices {
				devAvail[dev] = savedAvail[i]
				devMem[dev] -= tasks[t].Mem
			}
		}
	}
	rec(0, 0)
	return best, best >= 0
}

// randomInstance builds a random small task set (≤7 tasks) with a random
// DAG, durations, devices, memory deltas and releases. Every task is its own
// stage, so no symmetry chain forms.
func randomInstance(rng *rand.Rand) ([]Task, Options) {
	n := 3 + rng.Intn(5)
	d := 1 + rng.Intn(3)
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		tasks[i] = Task{
			ID:      sched.Block{Stage: i, Micro: 0},
			Time:    1 + rng.Intn(4),
			Mem:     rng.Intn(3) - 1,
			Devices: []sched.DeviceID{sched.DeviceID(rng.Intn(d))},
			Release: rng.Intn(3),
		}
		// Edges only from lower to higher index → acyclic.
		for j := 0; j < i; j++ {
			if rng.Intn(4) == 0 {
				tasks[i].Preds = append(tasks[i].Preds, j)
			}
		}
	}
	opts := Options{NumDevices: d, Memory: Unbounded}
	if rng.Intn(2) == 0 {
		opts.Memory = 2 + rng.Intn(3)
	}
	return tasks, opts
}

// barrierInstance draws a small task system (3–8 tasks) with at least one
// barrier task: one or two tasks span all d devices, the rest take one or two
// of them. Releases, DeviceReady, InitialMem and a memory cap are drawn as
// well, and NumDevices sometimes names a device no task uses whose DeviceReady
// lies past every other — a device the barrier term must leave out of M. Every
// task is its own stage, so no symmetry chain forms.
func barrierInstance(rng *rand.Rand) ([]Task, Options) {
	d := 2 + rng.Intn(2)
	n := 3 + rng.Intn(6)
	all := make([]sched.DeviceID, d)
	for dev := range all {
		all[dev] = sched.DeviceID(dev)
	}
	barriers := 1 + rng.Intn(2)
	tasks := make([]Task, n)
	for i := range tasks {
		t := Task{ID: sched.Block{Stage: i}, Time: 1 + rng.Intn(4), Mem: rng.Intn(3) - 1}
		switch {
		case i < barriers:
			t.Devices = slices.Clone(all)
			rng.Shuffle(d, func(a, b int) { t.Devices[a], t.Devices[b] = t.Devices[b], t.Devices[a] })
		case rng.Intn(4) == 0:
			a, b := rng.Intn(d), rng.Intn(d)
			t.Devices = []sched.DeviceID{sched.DeviceID(a)}
			if b != a {
				t.Devices = append(t.Devices, sched.DeviceID(b))
			}
		default:
			t.Devices = []sched.DeviceID{sched.DeviceID(rng.Intn(d))}
		}
		if rng.Intn(3) == 0 {
			t.Release = rng.Intn(6)
		}
		tasks[i] = t
	}
	// Edges from lower to higher positions of a shuffled order keep the graph
	// acyclic without putting the barriers first.
	order := rng.Perm(n)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Intn(3) == 0 {
				tasks[order[i]].Preds = append(tasks[order[i]].Preds, order[j])
			}
		}
	}
	opts := Options{NumDevices: d + rng.Intn(2), Memory: 2 + rng.Intn(3)}
	opts.InitialMem = make([]int, opts.NumDevices)
	opts.DeviceReady = make([]int, opts.NumDevices)
	for dev := 0; dev < d; dev++ {
		opts.InitialMem[dev] = rng.Intn(2)
		opts.DeviceReady[dev] = rng.Intn(5)
	}
	if opts.NumDevices > d {
		opts.DeviceReady[d] = 50
	}
	return tasks, opts
}

// pipelineInstance draws a small pipeline (2–4 stages, 2–3 micro-batches, at
// most 8 tasks) with the structure Property 4.1 needs, so symmetry chains
// form: every micro-batch is a copy of one stage DAG, dependencies stay inside
// a micro-batch, and a stage's releases do not decrease with the micro index.
// Stages take one or two devices; memory deltas, a memory cap, InitialMem and
// DeviceReady are drawn as well.
func pipelineInstance(rng *rand.Rand) ([]Task, Options) {
	d := 1 + rng.Intn(3)
	k := 2 + rng.Intn(3)
	n := 2 + rng.Intn(2)
	if k*n > 8 {
		n = 2
	}
	stages := make([]Task, k)
	step := make([]int, k)
	for i := range stages {
		st := Task{Time: 1 + rng.Intn(3), Mem: rng.Intn(3) - 1, Devices: []sched.DeviceID{sched.DeviceID(rng.Intn(d))}}
		if other := sched.DeviceID(rng.Intn(d)); rng.Intn(4) == 0 && other != st.Devices[0] {
			st.Devices = append(st.Devices, other)
		}
		for j := 0; j < i; j++ {
			if rng.Intn(2) == 0 {
				st.Preds = append(st.Preds, j)
			}
		}
		if rng.Intn(3) == 0 {
			st.Release, step[i] = rng.Intn(4), rng.Intn(3)
		}
		stages[i] = st
	}
	tasks := make([]Task, 0, k*n)
	for m := 0; m < n; m++ {
		for i, st := range stages {
			t := Task{ID: sched.Block{Stage: i, Micro: m}, Time: st.Time, Mem: st.Mem, Devices: st.Devices, Release: st.Release + m*step[i]}
			for _, p := range st.Preds {
				t.Preds = append(t.Preds, m*k+p)
			}
			tasks = append(tasks, t)
		}
	}
	opts := Options{NumDevices: d}
	if rng.Intn(2) == 0 {
		opts.Memory = 1 + rng.Intn(4)
	}
	if rng.Intn(3) == 0 {
		opts.InitialMem = make([]int, d)
		opts.DeviceReady = make([]int, d)
		for dev := range d {
			opts.InitialMem[dev] = rng.Intn(2)
			opts.DeviceReady[dev] = rng.Intn(4)
		}
	}
	return tasks, opts
}

// families are the random instance generators of the harness.
var families = []struct {
	name  string
	draw  func(*rand.Rand) ([]Task, Options)
	count int
}{
	{"random", randomInstance, 300},
	{"barrier", barrierInstance, 400},
	{"pipeline", pipelineInstance, 300},
}

// termNames name the lower bounds the search prunes with: the device-load and
// static terms of prunedOrMemo's pre-check and the three terms of pathBound.
var termNames = [...]string{"device load", "static", "critical path", "one-machine", "barrier"}

// terms evaluates every lower bound the search prunes with on the current
// state. The three pathBound terms are re-derived, one by one, from the
// estimates of the pathBound walk that must just have run.
func (s *searcher) terms() [len(termNames)]int {
	cp, oneMachine, barrier := 0, 0, 0
	for dev := 0; dev < s.d; dev++ {
		head, tail := math.MaxInt, math.MaxInt
		for u := 0; u < s.n; u++ {
			if !s.sched[u] && slices.Contains(s.tasks[u].Devices, sched.DeviceID(dev)) {
				head, tail = min(head, s.est[u]), min(tail, s.tail[u])
			}
		}
		if head != math.MaxInt {
			oneMachine = max(oneMachine, head+s.remWork[dev]+tail)
		}
	}
	for u := 0; u < s.n; u++ {
		if !s.sched[u] {
			cp = max(cp, s.est[u]+s.time[u]+s.tail[u])
		}
	}
	if s.barrierLeft > 0 {
		m := 0
		for _, dev := range s.tasks[s.barrierRep].Devices {
			m = max(m, s.devAvail[dev])
		}
		longest := 0
		for u := 0; u < s.n; u++ {
			if !s.sched[u] && s.est[u] >= m {
				longest = max(longest, s.chain[u])
			}
		}
		barrier = m + s.barrierLeft + longest
	}
	return [...]int{s.loadBound(), s.staticLB, cp, oneMachine, barrier}
}

// walk collects what an exhaustive walk of one instance checks across states:
// the states on which each bound term is tight, and every state's dominance
// vector and best completion, grouped by scheduled set.
type walk struct {
	t      *testing.T
	tight  [len(termNames)]int
	states map[string][]walkState
}

type walkState struct {
	vec  []uint64 // fillStateVector's packed dominance state
	best int      // best completion; math.MaxInt if there is none
}

// exhaust enumerates every completion of the searcher's current state the way
// the search branches — the frontier under the memory cap, each candidate at
// its earliest start — and returns the best makespan (-1 if none completes).
// At every state with a completion it fails the test if any bound term
// exceeds the best completion below it, or if pathBound is not the largest of
// its three terms, and it counts the states on which each term equals that
// completion. Every state is recorded for w.dominance.
func (s *searcher) exhaust(w *walk) int {
	if s.nSched == s.n {
		return s.makespan
	}
	lb := s.pathBound()
	terms := s.terms()
	vec, _ := s.fillStateVector(nil)
	best := -1
	fr := &s.frames[s.nSched]
	cands := s.collectCandidates()
	for i := range cands {
		c := cands[i]
		saved := fr.saved[:0]
		for _, dev := range s.devList[s.devOff[c.task]:s.devOff[c.task+1]] {
			saved = append(saved, s.devAvail[dev])
		}
		fr.saved = saved
		makespan := s.makespan
		s.apply(c)
		if v := s.exhaust(w); v >= 0 && (best < 0 || v < best) {
			best = v
		}
		s.undo(c, fr.saved, makespan)
	}
	key := fmt.Sprint(s.mask)
	if best < 0 {
		w.states[key] = append(w.states[key], walkState{vec, math.MaxInt})
		return best
	}
	w.states[key] = append(w.states[key], walkState{vec, best})
	if p := max(terms[2], terms[3], terms[4]); p != lb {
		w.t.Errorf("depth %d: pathBound %d, its terms %v", s.nSched, lb, terms[2:])
	}
	for i, v := range terms {
		if v > best {
			w.t.Errorf("depth %d: %s bound %d exceeds the best completion %d", s.nSched, termNames[i], v, best)
		}
		if v == best {
			w.tight[i]++
		}
	}
	return best
}

// dominance holds the memo's rule to the walk: of two states with the same
// scheduled set, the one whose dominance vector is componentwise no larger
// has no worse best completion — which is what lets the memo prune the other.
// It returns the number of dominating pairs it checked.
func (w *walk) dominance() int {
	pairs := 0
	for _, states := range w.states {
		for _, a := range states {
			for _, b := range states {
				if !lanesLE(a.vec, b.vec) {
					continue
				}
				pairs++
				if a.best > b.best {
					w.t.Errorf("a state dominating another completes in %d, the dominated one in %d", a.best, b.best)
				}
			}
		}
	}
	return pairs
}

// lanesLE compares two packed dominance vectors of one layout lane by lane.
func lanesLE(a, b []uint64) bool {
	for i := range a {
		if int32(a[i]) > int32(b[i]) || int32(a[i]>>32) > int32(b[i]>>32) {
			return false
		}
	}
	return true
}

// TestBoundsSound holds every lower-bound term, and the memo's dominance rule,
// to the optimum on random small instances of every family: no state of the
// search tree bounds above its own best completion, no state dominates another
// that completes sooner, the tree's best is the brute-force optimum, and each
// term is tight somewhere, so none is checked only vacuously.
func TestBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := &walk{t: t}
	pairs := 0
	for _, f := range families {
		for i := 0; i < f.count; i++ {
			tasks, opts := f.draw(rng)
			s := &searcher{}
			if err := s.reset(context.Background(), tasks, opts); err != nil {
				t.Fatal(err)
			}
			want, feasible := bruteForce(tasks, opts)
			w.states = map[string][]walkState{}
			if got := s.exhaust(w); got != want || !feasible && got >= 0 {
				t.Fatalf("%s instance %d: exhaustive walk finds %d, brute force %d: %+v %+v", f.name, i, got, want, tasks, opts)
			}
			pairs += w.dominance()
		}
	}
	for i, n := range w.tight {
		if n == 0 {
			t.Errorf("the %s bound is tight on no state", termNames[i])
		}
	}
	t.Logf("states on which each term is tight: %v %v; %d dominating pairs", termNames, w.tight, pairs)
}

// differential solves every instance of the families with one mechanism
// switched on and off and holds both solves to brute force: the same
// feasibility and makespan, both proven — and fails unless the mechanism
// saves nodes overall.
func differential(t *testing.T, on *bool, seed int64, fams ...string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var nodesOn, nodesOff int64
	for _, f := range families {
		if !slices.Contains(fams, f.name) {
			continue
		}
		for i := 0; i < f.count; i++ {
			tasks, opts := f.draw(rng)
			want, feasible := bruteForce(tasks, opts)
			with, err := Solve(context.Background(), tasks, opts)
			if err != nil {
				t.Fatal(err)
			}
			var off Result
			without(on, func() { off, err = Solve(context.Background(), tasks, opts) })
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []Result{with, off} {
				if !r.Optimal || r.Feasible != feasible || feasible && r.Makespan != want {
					t.Fatalf("%s instance %d: %+v, brute force %d (feasible %v): %+v %+v", f.name, i, r, want, feasible, tasks, opts)
				}
			}
			nodesOn, nodesOff = nodesOn+with.Nodes, nodesOff+off.Nodes
		}
	}
	if nodesOn >= nodesOff {
		t.Fatalf("the mechanism saved no node: %d with, %d without", nodesOn, nodesOff)
	}
	t.Logf("%d nodes with the mechanism, %d without", nodesOn, nodesOff)
}

// TestBarrierBoundDifferential solves random barrier instances with the term
// on and off: every solve proven both ways returns the same verdicts and the
// same start vector, and the term never costs nodes.
func TestBarrierBoundDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2626))
	var nodesOn, nodesOff int64
	for i := 0; i < 2000; i++ {
		tasks, opts := barrierInstance(rng)
		on, err := Solve(context.Background(), tasks, opts)
		if err != nil {
			t.Fatal(err)
		}
		var off Result
		without(&barrierBoundOn, func() { off, err = Solve(context.Background(), tasks, opts) })
		if err != nil {
			t.Fatal(err)
		}
		if !on.Optimal || !off.Optimal {
			t.Fatalf("instance %d: unproven solve (on %v, off %v)", i, on.Optimal, off.Optimal)
		}
		if on.Feasible != off.Feasible || on.Makespan != off.Makespan || !slices.Equal(on.Starts, off.Starts) {
			t.Fatalf("instance %d: on %+v, off %+v", i, on, off)
		}
		if on.Nodes > off.Nodes {
			t.Fatalf("instance %d: %d nodes with the term, %d without", i, on.Nodes, off.Nodes)
		}
		nodesOn, nodesOff = nodesOn+on.Nodes, nodesOff+off.Nodes
	}
	if nodesOn >= nodesOff {
		t.Fatalf("the barrier term saved no node: %d with, %d without", nodesOn, nodesOff)
	}
	t.Logf("%d nodes with the barrier term, %d without", nodesOn, nodesOff)
}

// TestMemoDifferential: dominance memoization on and off give the brute-force
// optimum on every family.
func TestMemoDifferential(t *testing.T) {
	differential(t, &memoOn, 3101, "random", "barrier", "pipeline")
}

// TestSymmetryDifferential: Property 4.1 symmetry on and off give the
// brute-force optimum on pipeline instances, the family in which its chains
// form.
func TestSymmetryDifferential(t *testing.T) {
	differential(t, &symmetryOn, 3102, "pipeline")
}
