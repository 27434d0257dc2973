package solver

import (
	"context"
	"testing"
)

// benchSolve solves the X-shape n = 3 whole problem with opts; each ablation
// switches one mechanism off around it. Besides wall time it reports nodes/op
// and nodes/s.
func benchSolve(b *testing.B, opts Options) {
	tasks := searchTasks(b, 3, 4000)
	b.ReportAllocs()
	b.ResetTimer() // the fixture's own check is a 4000-node solve
	var nodes int64
	for i := 0; i < b.N; i++ {
		res, err := Solve(context.Background(), tasks, opts)
		if err != nil || !res.Feasible {
			b.Fatalf("res=%+v err=%v", res, err)
		}
		nodes += res.Nodes
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(nodes)/sec, "nodes/s")
		b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	}
}

// BenchmarkAblationSolverFull measures the exact solver with all pruning.
func BenchmarkAblationSolverFull(b *testing.B) {
	benchSolve(b, Options{})
}

// BenchmarkAblationSolverNoSymmetry switches Property 4.1 pruning off.
func BenchmarkAblationSolverNoSymmetry(b *testing.B) {
	without(&symmetryOn, func() { benchSolve(b, Options{}) })
}

// BenchmarkAblationSolverNoMemo switches dominance memoization off. Without
// the memo the instance's search tree explodes (the solve runs minutes, not
// milliseconds), so the solve is node-capped and the comparison against
// BenchmarkAblationSolverFull is the nodes/s metric plus the nodes/op blow-up,
// not wall time to optimality.
func BenchmarkAblationSolverNoMemo(b *testing.B) {
	without(&memoOn, func() { benchSolve(b, Options{MaxNodes: 200000}) })
}
