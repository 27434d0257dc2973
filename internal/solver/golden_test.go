package solver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"tessel/internal/placement"
	"tessel/internal/repetend"
	"tessel/internal/sched"
	"tessel/internal/solver"
)

var updateGolden = flag.Bool("update-golden", false, "re-record testdata/solves.golden.json from the code under test")

const goldenSolvesPath = "testdata/solves.golden.json"

// goldenNodes is the node budget of every golden solve. Entries the recording
// commit could not prove within it are kept (Optimal false) and held only to
// the node bound: a stronger bound may legitimately finish them.
const goldenNodes = 300000

// goldenNodeTotal is the node count of all golden solves together since the
// barrier bound went in. Per-case records alone would let a bound that cuts
// only a few nodes per solve, like staticLB, go without a test that fails.
const goldenNodeTotal = 325593

// goldenCase names one solver instance — exactly one of the three descriptions
// is set — and the result the recording commit returned for it.
//
//   - Seed: a random task system (multi-device tasks, releases, DeviceReady,
//     InitialMem, memory caps) drawn by randomSystem.
//   - Shape + N: the whole-problem instance of a 4-device paper shape with N
//     micro-batches, which exercises the Property 4.1 symmetry chains.
//   - Shape + Zero: one repetend instance of a catalog placement's sweep — a
//     task per stage, dependencies restricted to the lag-zero edges Zero, entry
//     memory Init — as repetend.Solve hands it to the solver.
type goldenCase struct {
	Seed   int64    `json:"seed,omitempty"`
	Shape  string   `json:"shape,omitempty"`
	N      int      `json:"n,omitempty"`
	Zero   [][2]int `json:"zero,omitempty"`
	Init   []int    `json:"init,omitempty"`
	Memory int      `json:"memory,omitempty"`

	Feasible bool  `json:"feasible"`
	Optimal  bool  `json:"optimal"`
	Makespan int   `json:"makespan"`
	Starts   []int `json:"starts"`
	Nodes    int64 `json:"nodes"`
}

func (c *goldenCase) String() string {
	switch {
	case c.Shape == "":
		return fmt.Sprintf("seed %d", c.Seed)
	case c.N > 0:
		return fmt.Sprintf("%s n=%d mem=%d", c.Shape, c.N, c.Memory)
	}
	return fmt.Sprintf("%s zero=%v init=%v", c.Shape, c.Zero, c.Init)
}

// goldenShape builds a placement the structured cases draw from: the five
// paper shapes on four devices, and the eight-device X-shape, whose sweep under
// memory 4 (the catalog's x8m4) is recorded instance by instance beside m4's.
func goldenShape(t testing.TB, name string) *sched.Placement {
	t.Helper()
	build, devices := map[string]func(placement.Config) (*sched.Placement, error){
		"v4": placement.VShape, "x4": placement.XShape, "m4": placement.MShape,
		"k4": placement.KShape, "nn4": placement.NNShape, "x8": placement.XShape,
	}[name], 4
	if name == "x8" {
		devices = 8
	}
	if build == nil {
		t.Fatalf("no golden shape %q", name)
	}
	p, err := build(placement.Config{Devices: devices})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomSystem draws the task system and options of one seed. Every task is
// its own stage, so symmetry chains stay out of systems that do not have the
// structure Property 4.1 needs.
func randomSystem(seed int64) ([]solver.Task, solver.Options) {
	r := rand.New(rand.NewSource(seed))
	d := 2 + r.Intn(3)
	n := 6 + r.Intn(9)
	tasks := make([]solver.Task, n)
	for i := range tasks {
		t := solver.Task{ID: sched.Block{Stage: i}, Time: 1 + r.Intn(4), Mem: r.Intn(4) - 1}
		t.Devices = []sched.DeviceID{sched.DeviceID(r.Intn(d))}
		if r.Intn(4) == 0 {
			if other := sched.DeviceID(r.Intn(d)); other != t.Devices[0] {
				t.Devices = append(t.Devices, other)
			}
		}
		for j := 0; j < i; j++ {
			if r.Intn(5) == 0 {
				t.Preds = append(t.Preds, j)
			}
		}
		if r.Intn(5) == 0 {
			t.Release = r.Intn(6)
		}
		tasks[i] = t
	}
	opts := solver.Options{NumDevices: d}
	if r.Intn(2) == 0 {
		opts.Memory = 2 + r.Intn(4)
	}
	if r.Intn(3) == 0 {
		opts.InitialMem = make([]int, d)
		for dev := range opts.InitialMem {
			opts.InitialMem[dev] = r.Intn(2)
		}
	}
	if r.Intn(3) == 0 {
		opts.DeviceReady = make([]int, d)
		for dev := range opts.DeviceReady {
			opts.DeviceReady[dev] = r.Intn(5)
		}
	}
	return tasks, opts
}

// system rebuilds the solver input a golden case describes.
func (c *goldenCase) system(t testing.TB) ([]solver.Task, solver.Options) {
	t.Helper()
	if c.Shape == "" {
		return randomSystem(c.Seed)
	}
	p := goldenShape(t, c.Shape)
	opts := solver.Options{NumDevices: p.NumDevices, Memory: c.Memory, InitialMem: c.Init}
	if c.N > 0 {
		tasks, err := solver.BuildTasks(p, solver.AllBlocks(p, c.N), nil)
		if err != nil {
			t.Fatal(err)
		}
		return tasks, opts
	}
	tasks := make([]solver.Task, p.K())
	for i := range tasks {
		st := &p.Stages[i]
		tasks[i] = solver.Task{ID: sched.Block{Stage: i}, Time: st.Time, Mem: st.Mem, Devices: st.Devices}
	}
	for _, e := range c.Zero {
		tasks[e[1]].Preds = append(tasks[e[1]].Preds, e[0])
	}
	return tasks, opts
}

// sweepCases lists every distinct instance task system of the shape's
// repetend sweep under the given memory cap: one per (lag-zero edge set, entry
// memory) over all assignments of N_R = 1 … maxNR whose entry memory fits.
func sweepCases(t testing.TB, shape string, memory, maxNR int) []goldenCase {
	t.Helper()
	p := goldenShape(t, shape)
	seen := map[string]bool{}
	var cases []goldenCase
	for nr := 1; nr <= maxNR; nr++ {
		if _, err := repetend.Enumerate(p, nr, func(a repetend.Assignment) bool {
			c := goldenCase{Shape: shape, Memory: memory}
			if memory != 0 {
				c.Init = repetend.EntryMemory(p, a, 0)
				if slices.Max(c.Init) > memory {
					return true
				}
			}
			for i, succs := range p.Deps {
				for _, j := range succs {
					if a[i] == a[j] {
						c.Zero = append(c.Zero, [2]int{i, j})
					}
				}
			}
			if key := c.String(); !seen[key] {
				seen[key] = true
				cases = append(cases, c)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cases
}

func goldenInputs(t testing.TB) []goldenCase {
	var cases []goldenCase
	for seed := int64(1); seed <= 240; seed++ {
		cases = append(cases, goldenCase{Seed: seed})
	}
	for _, w := range []struct {
		shape     string
		n, memory int
	}{
		{"v4", 2, 0}, {"v4", 3, 0}, {"v4", 4, 0}, {"v4", 4, 3}, {"v4", 6, 0},
		{"x4", 2, 0}, {"x4", 3, 0}, {"x4", 3, 4}, {"k4", 2, 0}, {"k4", 3, 0}, {"k4", 3, 6},
		{"m4", 2, 0}, {"m4", 3, 0}, {"m4", 2, 8}, {"nn4", 2, 0}, {"nn4", 2, 8},
	} {
		cases = append(cases, goldenCase{Shape: w.shape, N: w.n, Memory: w.memory})
	}
	cases = append(cases, sweepCases(t, "m4", 0, 6)...)
	cases = append(cases, sweepCases(t, "x8", 4, 2)...)
	return cases
}

// TestGoldenSolves holds the solver to the results recorded at the commit
// before the one-machine bound went in (58c95c1): a lower bound may only cut
// subtrees that cannot strictly improve the incumbent, so every solve that
// commit proved optimal must come back with the same makespan and the same
// start vector — the first optimal one in DFS order — and no solve may expand
// more nodes than it did then, nor all of them together more than
// goldenNodeTotal. The 40 seeds divisible by six were recorded in
// jobs mode there; their records are the sequential solves of 4fc5e7c, the
// last commit that had a second engine to tell apart.
func TestGoldenSolves(t *testing.T) {
	if *updateGolden {
		cases := goldenInputs(t)
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i := range cases {
			c := &cases[i]
			tasks, opts := c.system(t)
			opts.MaxNodes = goldenNodes
			res, err := solver.Solve(context.Background(), tasks, opts)
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			c.Feasible, c.Optimal, c.Makespan, c.Starts, c.Nodes = res.Feasible, res.Optimal, res.Makespan, res.Starts, res.Nodes
			line, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(cases)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(goldenSolvesPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d solves", len(cases))
		return
	}
	raw, err := os.ReadFile(goldenSolvesPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) < 200 {
		t.Fatalf("only %d golden solves", len(cases))
	}
	var proven int
	var nodes, goldenTotal int64
	for i := range cases {
		c := &cases[i]
		tasks, opts := c.system(t)
		opts.MaxNodes = goldenNodes
		res, err := solver.Solve(context.Background(), tasks, opts)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		nodes, goldenTotal = nodes+res.Nodes, goldenTotal+c.Nodes
		if res.Nodes > c.Nodes {
			t.Errorf("%s: %d nodes, recorded %d", c, res.Nodes, c.Nodes)
		}
		if !c.Optimal {
			continue
		}
		proven++
		if !res.Optimal || res.Feasible != c.Feasible {
			t.Errorf("%s: feasible %v optimal %v, recorded feasible %v and proven", c, res.Feasible, res.Optimal, c.Feasible)
			continue
		}
		if c.Feasible && (res.Makespan != c.Makespan || !slices.Equal(res.Starts, c.Starts)) {
			t.Errorf("%s: makespan %d starts %v, recorded %d %v", c, res.Makespan, res.Starts, c.Makespan, c.Starts)
		}
	}
	if nodes > goldenNodeTotal {
		t.Errorf("%d nodes in all, more than the %d recorded with the barrier bound", nodes, goldenNodeTotal)
	}
	t.Logf("%d solves (%d proven at recording): %d nodes, recorded %d", len(cases), proven, nodes, goldenTotal)
}
