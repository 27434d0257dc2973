package solver

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"tessel/internal/sched"
)

// withoutBarrierBound runs f with pathBound's barrier term switched off.
func withoutBarrierBound(f func()) {
	barrierBoundOn = false
	defer func() { barrierBoundOn = true }()
	f()
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
	opts := Options{NumDevices: d + rng.Intn(2), Memory: 2 + rng.Intn(3), DisableSymmetry: true}
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

// exhaust enumerates every completion of the searcher's current state the way
// the search branches — the frontier under the memory cap, each candidate at
// its earliest start — and returns the best makespan (-1 if none completes).
// On the way it fails the test at any state whose pathBound exceeds the best
// completion below it.
func (s *searcher) exhaust(t *testing.T) int {
	if s.nSched == s.n {
		return s.makespan
	}
	lb := s.pathBound()
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
		makespan, maxTail := s.makespan, s.maxTail
		s.apply(c)
		if v := s.exhaust(t); v >= 0 && (best < 0 || v < best) {
			best = v
		}
		s.undo(c, fr.saved, makespan, maxTail)
	}
	if best >= 0 && lb > best {
		t.Errorf("pathBound %d at depth %d exceeds the best completion %d", lb, s.nSched, best)
	}
	return best
}

// TestBarrierBoundSound holds the barrier term to the optimum on random small
// barrier instances: the root bound never exceeds the brute-force optimum, and
// no state of the search tree bounds above its own best completion.
func TestBarrierBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	fired := 0
	for i := 0; i < 400; i++ {
		tasks, opts := barrierInstance(rng)
		s := &searcher{}
		if err := s.reset(context.Background(), tasks, opts); err != nil {
			t.Fatal(err)
		}
		if s.barrierRep < 0 {
			t.Fatalf("instance %d has no barrier task: %+v", i, tasks)
		}
		want, feasible := bruteForce(tasks, opts)
		if !feasible {
			continue
		}
		if s.staticLB > want {
			t.Fatalf("instance %d: root bound %d exceeds the optimum %d: %+v %+v", i, s.staticLB, want, tasks, opts)
		}
		if got := s.exhaust(t); got != want {
			t.Fatalf("instance %d: exhaustive walk finds %d, brute force %d", i, got, want)
		}
		off := &searcher{}
		var err error
		withoutBarrierBound(func() { err = off.reset(context.Background(), tasks, opts) })
		if err != nil {
			t.Fatal(err)
		}
		if s.staticLB > off.staticLB {
			fired++
		}
	}
	if fired < 20 {
		t.Fatalf("the barrier term raised the root bound on only %d of 400 instances", fired)
	}
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
		withoutBarrierBound(func() { off, err = Solve(context.Background(), tasks, opts) })
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
