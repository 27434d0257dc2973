// Package-level benchmarks: one testing.B benchmark per table and figure of
// the paper's evaluation (§VI), each driving the corresponding experiment
// harness. Run the full regeneration with
//
//	go test -bench=. -benchmem
//
// or print the paper-style rows directly with cmd/tessel-bench. Benchmarks
// use the quick sweep mode so a full -bench=. pass stays in the minutes
// range; EXPERIMENTS.md records a `tessel-bench -quick` run against the
// paper's numbers.
package tessel_test

import (
	"context"
	"testing"

	"tessel"
	"tessel/internal/experiments"
)

var benchMode = experiments.Mode{Quick: true}

// benchExperiment runs one experiment driver b.N times and reports the
// per-run wall time.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(context.Background(), name, benchMode); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

// BenchmarkFig2 regenerates Figure 2 (GPT stage imbalance under 1F1B/Piper).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates Figure 3 (time-optimal search-time blow-up).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig8 regenerates Figure 8 (searched schedules for all models).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkTable2 regenerates Table II (bubble rates of each schedule).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3 regenerates Table III (model configurations).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig9 regenerates Figure 9 (TO vs Tessel search cost).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (search breakdown + lazy ablation).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (bubble rate vs N_R).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (bubble rate vs memory capacity).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (GPT end-to-end throughput).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Figure 14 (mT5 end-to-end throughput).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15 regenerates Figure 15 (Flava inference trade-off).
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16 regenerates Figure 16 (runtime breakdown).
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17 regenerates Figure 17 (blocking vs non-blocking comm).
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }

// --- Serving-engine benchmarks -------------------------------------------
//
// The pair BenchmarkEngineColdSearch / BenchmarkEngineCacheHit quantifies
// what the repetend cache buys a serving deployment: the cold path runs the
// full N_R sweep for the m-shape placement, the hit path answers the same
// request from the cache (fingerprint lookup + extension), which must be
// orders of magnitude (≥100×) faster.

func benchPlacement(b *testing.B) *tessel.Placement {
	b.Helper()
	p, err := tessel.NewMShape(tessel.ShapeConfig{Devices: 4})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkFingerprint measures the canonical-encoding + SHA-256 identity
// of a placement — the per-request overhead every engine lookup pays.
func BenchmarkFingerprint(b *testing.B) {
	p := benchPlacement(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tessel.Fingerprint(p) == "" {
			b.Fatal("empty fingerprint")
		}
	}
}

// BenchmarkEngineColdSearch measures a full search through a fresh engine
// (every iteration misses), one sub-benchmark per regime of the two-pass
// sweep: m4 (the M-shape of the other engine benchmarks), k6 and m8i reach
// the lower bound in the first pass, where the exact order check, branching at
// the prefixes of the walk's last three levels, cuts nearly every subtree the
// rest of the filter leaves (order_pruned/op) and leaves Solve one leaf or a
// few — m4 pays the most branch nodes per check, m8i runs the most checks, k6
// keeps a few candidates the check lets through and the heuristic then
// misses; v6, v6m8, x8i and nn6i — with m8i the cold_period
// workload of the repository benchmark — reach the bound on the filter alone,
// a handful of assignments past it and hardly a solve, so they show what a
// walk through the filter costs (prefix_checks/op; nn6i's warmup, once 32,146
// nodes, is proven at the root since the barrier bound); x8m4 cannot reach the
// bound under its memory cap and pays the failed first pass — every round of
// it dead at the filter's root — plus the unaimed second pass, which the
// filter stays out of: it walks all 288 leaves and hands them out best-first
// by relaxation bound, and only the 47 or so that can still beat the best go
// to Solve, where the order check (order_checks/op) discards most of them
// before their instance solve (~5k solver nodes at one worker, ~54k while
// the check ran at the lower bound only; all 288, 85k nodes, in enumeration
// order). k6m8 and v6m4 are the other memory-capped shapes of the repository
// benchmark (cold_solver and zipf_mix): k6m8 reaches the bound in the first
// pass, v6m4 falls back to the unaimed pass as x8m4 does. solver_nodes/op
// counts the nodes of the sweep's instance solves; period_probes/op the
// period-feasibility probes of the repetend engine and period_relaxations/op
// the distance tightenings inside them, which fall when an infeasible probe
// stops earlier (x8m4's 4,148 probes took ~489k relaxations while a probe
// ran until a relaxation chain reached K edges, ~157k since the first
// positive cycle in the longest-path tree ends it). Regressions in the
// pruning show up here first.
func BenchmarkEngineColdSearch(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct {
		name      string
		build     func(tessel.ShapeConfig) (*tessel.Placement, error)
		devices   int
		memory    int
		inference bool
	}{
		{"m4", tessel.NewMShape, 4, 0, false},
		{"k6", tessel.NewKShape, 6, 0, false},
		{"m8i", tessel.NewMShape, 8, 0, true},
		{"v6", tessel.NewVShape, 6, 0, false},
		{"v6m8", tessel.NewVShape, 6, 8, false},
		{"x8i", tessel.NewXShape, 8, 0, true},
		{"nn6i", tessel.NewNNShape, 6, 0, true},
		{"x8m4", tessel.NewXShape, 8, 4, false},
		{"k6m8", tessel.NewKShape, 6, 8, false},
		{"v6m4", tessel.NewVShape, 6, 4, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := c.build(tessel.ShapeConfig{Devices: c.devices})
			if err != nil {
				b.Fatal(err)
			}
			if c.inference {
				p = tessel.InferenceVariant(p)
			}
			var orderChecks, orderPruned, prefixChecks, prefixCuts, solverNodes, probes, relaxations int64
			for i := 0; i < b.N; i++ {
				eng := tessel.NewEngine(tessel.EngineOptions{})
				res, _, err := eng.Search(ctx, p, tessel.SearchOptions{N: 12, Memory: c.memory})
				if err != nil {
					b.Fatal(err)
				}
				orderChecks += res.Stats.OrderChecks
				orderPruned += res.Stats.OrderPruned
				prefixChecks += res.Stats.PrefixChecks
				prefixCuts += res.Stats.PrefixCuts
				solverNodes += res.Stats.SolverNodes
				probes += res.Stats.PeriodProbes
				relaxations += res.Stats.PeriodRelaxations
			}
			b.ReportMetric(float64(orderChecks)/float64(b.N), "order_checks/op")
			b.ReportMetric(float64(orderPruned)/float64(b.N), "order_pruned/op")
			b.ReportMetric(float64(prefixChecks)/float64(b.N), "prefix_checks/op")
			b.ReportMetric(float64(prefixCuts)/float64(b.N), "prefix_cuts/op")
			b.ReportMetric(float64(solverNodes)/float64(b.N), "solver_nodes/op")
			b.ReportMetric(float64(probes)/float64(b.N), "period_probes/op")
			b.ReportMetric(float64(relaxations)/float64(b.N), "period_relaxations/op")
		})
	}
}

// BenchmarkSearchWorkers measures cold searches at fixed worker counts. The
// result is byte-identical for every setting (the sweep judges candidates in
// the order it hands them out and breaks ties canonically), so the interesting number is
// how much wall clock the solver goroutines buy on top of incumbent pruning.
// Both sides of that trade-off are here: m4 (~440 subtrees, ~760 order checks
// at their prefixes, one leaf solved) and x8m4 (the unaimed fallback pass)
// gain from more workers, x4 — a few subtrees and an early exit — runs faster
// on one. v6m4 and nn4m8 are the catalog's other two placements that reach the
// unaimed pass, so every shape that pass hands out is timed here.
func BenchmarkSearchWorkers(b *testing.B) {
	ctx := context.Background()
	placements := []struct {
		name         string
		build        func(tessel.ShapeConfig) (*tessel.Placement, error)
		devices, mem int
	}{
		{"m4", tessel.NewMShape, 4, 0},
		{"x8m4", tessel.NewXShape, 8, 4},
		{"v6m4", tessel.NewVShape, 6, 4},
		{"nn4m8", tessel.NewNNShape, 4, 8},
		{"x4", tessel.NewXShape, 4, 0},
	}
	for _, workers := range []int{1, 2, 0} {
		name := map[int]string{1: "w1", 2: "w2", 0: "wmax"}[workers]
		for _, c := range placements {
			b.Run(name+"/"+c.name, func(b *testing.B) {
				p, err := c.build(tessel.ShapeConfig{Devices: c.devices})
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					if _, err := tessel.SearchContext(ctx, p, tessel.SearchOptions{N: 12, Memory: c.mem, Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineCacheHit measures a repeat request with the same N: a
// fingerprint lookup returning the cached result.
func BenchmarkEngineCacheHit(b *testing.B) {
	p := benchPlacement(b)
	ctx := context.Background()
	eng := tessel.NewEngine(tessel.EngineOptions{})
	if _, _, err := eng.Search(ctx, p, tessel.SearchOptions{N: 12}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, info, err := eng.Search(ctx, p, tessel.SearchOptions{N: 12})
		if err != nil {
			b.Fatal(err)
		}
		if !info.Hit {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkEngineCacheHitExtend measures a repeat request with a different
// N each iteration: the cached repetend is extended (§III-C) instead of
// re-searched.
func BenchmarkEngineCacheHitExtend(b *testing.B) {
	p := benchPlacement(b)
	ctx := context.Background()
	eng := tessel.NewEngine(tessel.EngineOptions{})
	if _, _, err := eng.Search(ctx, p, tessel.SearchOptions{N: 12}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 13 + i%8 // never the cached N=12, so every iteration extends
		_, info, err := eng.Search(ctx, p, tessel.SearchOptions{N: n})
		if err != nil {
			b.Fatal(err)
		}
		if !info.Hit {
			b.Fatal("expected a cache hit")
		}
	}
}
