// Ablation and scaling benchmarks of the search: lazy vs eager schedule
// completion (§V), the exact solver's growth with the micro-batch count
// (Figure 3), its fixed cost on instances decided at the root, and the
// repetend period machinery. The ablations of the solver's own pruning live
// in internal/solver, beside the switches they turn off.
package tessel_test

import (
	"context"
	"fmt"
	"testing"

	"tessel"
	"tessel/internal/core"
	"tessel/internal/repetend"
	"tessel/internal/solver"
)

func mustShape(b *testing.B, build func(tessel.ShapeConfig) (*tessel.Placement, error)) *tessel.Placement {
	b.Helper()
	p, err := build(tessel.ShapeConfig{Devices: 4})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchSearch(b *testing.B, p *tessel.Placement, opts core.Options) {
	b.Helper()
	opts.MaxNR = 4
	for i := 0; i < b.N; i++ {
		if _, err := core.Search(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLazySearch measures the default lazy completion checks.
func BenchmarkAblationLazySearch(b *testing.B) {
	benchSearch(b, mustShape(b, tessel.NewNNShape), core.Options{})
}

// BenchmarkAblationEagerSearch measures completion solved time-optimally on
// every improving repetend (lazy search disabled, §V).
func BenchmarkAblationEagerSearch(b *testing.B) {
	benchSearch(b, mustShape(b, tessel.NewNNShape), core.Options{DisableLazy: true})
}

// solverTasks builds the whole-problem X-shape instance (4 devices, n
// micro-batches) the solver benchmarks run on. The V-shape family they used
// through PR 13 is proven at the root by the one-machine bound — one node for
// every n — and the barrier bound halved the M-shape family they used next
// (n = 3: 4,886 → 1,905 nodes; n = 4: 111,756 → 51,453). X-shape has no
// all-device stage and still searches (n = 2, 3, 5: 1,281, 6,257, 31,361
// nodes). The benchmark fails when the solver proves the instance in fewer
// than minNodes nodes: the next bound that flattens a family has to move these
// benchmarks, not quietly empty them.
func solverTasks(b *testing.B, n int, minNodes int64) []solver.Task {
	b.Helper()
	p, err := tessel.NewXShape(tessel.ShapeConfig{Devices: 4})
	if err != nil {
		b.Fatal(err)
	}
	tasks, err := solver.BuildTasks(p, solver.AllBlocks(p, n), nil)
	if err != nil {
		b.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), tasks, solver.Options{MaxNodes: minNodes})
	if err != nil {
		b.Fatal(err)
	}
	if res.Optimal {
		b.Fatalf("x-shape n=%d is proven in %d nodes; this benchmark needs a search of at least %d", n, res.Nodes, minNodes)
	}
	return tasks
}

// solverSizes are the micro-batch counts of the scaling benchmarks with the
// least search each must still need.
var solverSizes = []struct {
	name     string
	n        int
	minNodes int64
}{{"x_nmb2", 2, 1000}, {"x_nmb3", 3, 4000}, {"x_nmb5", 5, 25000}}

// reportNodeThroughput attaches the solver's budget-independent speed
// measure — branch-and-bound nodes per second — to a benchmark.
func reportNodeThroughput(b *testing.B, nodes int64) {
	b.Helper()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(nodes)/sec, "nodes/s")
		b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	}
}

// BenchmarkSolverScaling shows the exponential growth of the exact solve
// with micro-batch count — the Figure 3 effect at benchmark granularity.
// Besides wall time it reports nodes/s, the node-throughput measure the
// allocation-free solver core is tuned for.
func BenchmarkSolverScaling(b *testing.B) {
	for _, sz := range solverSizes {
		tasks := solverTasks(b, sz.n, sz.minNodes)
		b.Run(sz.name, func(b *testing.B) {
			b.ReportAllocs()
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, err := solver.Solve(context.Background(), tasks, solver.Options{})
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Nodes
			}
			reportNodeThroughput(b, nodes)
		})
	}
}

// BenchmarkSolverRootDecided times the solves the lower bounds decide at the
// root: whole-problem V-shape instances (4 devices) whose first descent meets
// the one-machine bound, so a solve is that descent, the return to the root
// and one node — the solver's fixed cost per instance, which the scaling
// benchmarks' searches bury. It fails if an instance takes more than one node.
func BenchmarkSolverRootDecided(b *testing.B) {
	p := mustShape(b, tessel.NewVShape)
	for _, n := range []int{8, 64, 256} {
		tasks, err := solver.BuildTasks(p, solver.AllBlocks(p, n), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("v_nmb%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int64
			for i := 0; i < b.N; i++ {
				res, err := solver.Solve(context.Background(), tasks, solver.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Optimal || res.Nodes != 1 {
					b.Fatalf("v-shape n=%d: optimal %v in %d nodes, want proven at the root", n, res.Optimal, res.Nodes)
				}
				nodes += res.Nodes
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

// BenchmarkPeriodMachinery measures the repetend period machinery — the
// difference-constraint feasibility probes of minPeriod and the local
// search — at sweep granularity, on the shapes whose searches are
// dominated by it: the m-shape cold search and the local-search-heavy
// k-shape / nn-shape sweeps. Besides wall time it reports probes/op,
// relax/op and swaps/op, the effort counters of the incremental period
// engine (probe counts are a pure function of the searched assignments,
// so they double as a determinism canary across runs). The order_check
// sub-benchmark is the first sweep pass's commonest outcome on its own: every
// m4 assignment that gets past the relaxation at the lower bound and is then
// discarded by the exact order check, one repetend.Solve call each — bind,
// the relaxation's probe, the check — with the check's branch nodes per call.
// prefix_push is the prefix filter on its own: one op walks round 6 of nn6i at
// the lower bound, in which every subtree is cut, so nothing but the root and
// pushes — copy a level, raise the edges, propagate — runs; ns/push is the
// figure to read.
func BenchmarkPeriodMachinery(b *testing.B) {
	b.Run("order_check", benchOrderCheck)
	b.Run("prefix_push", benchPrefixPush)
	shapes := []struct {
		name  string
		build func(tessel.ShapeConfig) (*tessel.Placement, error)
	}{
		{"mshape", tessel.NewMShape},
		{"kshape", tessel.NewKShape},
		{"nnshape", tessel.NewNNShape},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			p := mustShape(b, sh.build)
			b.ReportAllocs()
			var probes, relax, swaps int64
			for i := 0; i < b.N; i++ {
				res, err := core.Search(context.Background(), p, core.Options{MaxNR: 4})
				if err != nil {
					b.Fatal(err)
				}
				probes += res.Stats.PeriodProbes
				relax += res.Stats.PeriodRelaxations
				swaps += res.Stats.LocalSearchSwaps
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
			b.ReportMetric(float64(relax)/float64(b.N), "relax/op")
			b.ReportMetric(float64(swaps)/float64(b.N), "swaps/op")
		})
	}
}

func benchOrderCheck(b *testing.B) {
	ctx := context.Background()
	p := mustShape(b, tessel.NewMShape)
	var eff repetend.Effort
	opts := repetend.SolveOptions{PeriodUpperBound: p.LowerBound(), Effort: &eff}
	var survivors []repetend.Assignment
	for nr := 1; nr <= 6; nr++ {
		if _, err := repetend.Enumerate(p, nr, func(a repetend.Assignment) bool {
			before := eff.OrderPruned
			if _, err := repetend.Solve(ctx, p, a, opts); err != nil && eff.OrderPruned > before {
				survivors = append(survivors, a)
			}
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
	if len(survivors) < 1000 {
		b.Fatalf("only %d m4 assignments are discarded by the order check", len(survivors))
	}
	eff = repetend.Effort{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = repetend.Solve(ctx, p, survivors[i%len(survivors)], opts)
	}
	if eff.OrderPruned != int64(b.N) {
		b.Fatalf("%d of %d calls ended in the order check", eff.OrderPruned, b.N)
	}
	b.ReportMetric(float64(eff.OrderNodes)/float64(b.N), "order_nodes/op")
}

func benchPrefixPush(b *testing.B) {
	ctx := context.Background()
	p, err := tessel.NewNNShape(tessel.ShapeConfig{Devices: 6})
	if err != nil {
		b.Fatal(err)
	}
	p = tessel.InferenceVariant(p)
	f, err := repetend.NewPrefixFilter(p)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	bound := p.LowerBound()
	none := func(a repetend.Assignment) bool {
		b.Fatalf("round 6 of nn6i has an assignment the filter lets through: %v", a)
		return false
	}
	f.Enumerate(ctx, 6, bound, none)
	pushes := f.Effort().PrefixChecks
	if pushes < 500 {
		b.Fatalf("round 6 of nn6i takes %d pushes", pushes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Enumerate(ctx, 6, bound, none)
	}
	b.ReportMetric(float64(pushes), "pushes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*pushes), "ns/push")
}

// BenchmarkSolverReuse measures the package-level searcher recycling of
// solver.Solve — the steady state of a repetend sweep: one allocation per
// solve, the caller's Starts — on back-to-back solves of one instance.
func BenchmarkSolverReuse(b *testing.B) {
	tasks := solverTasks(b, 2, 1000)
	if _, err := solver.Solve(context.Background(), tasks, solver.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(context.Background(), tasks, solver.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
