package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tessel/internal/faultpoint"
	"tessel/internal/repetend"
	"tessel/internal/sched"
)

// fallbackShapes are the catalog placements whose memory cap keeps every
// repetend above the device-work lower bound: the pass aimed at the bound
// finds nothing and the unaimed pass decides.
var fallbackShapes = map[string]bool{"x8m4": true, "nn4m8": true, "v6m4": true}

// TestSearchSweepPasses reads from Stats which of the two sweep passes a
// search took. A placement that reaches the lower bound stops in the first
// pass: it hands its workers no more than one pass up to the N_R it stopped in
// and reports an early exit. One that cannot runs both passes to the end — the
// whole first pass for nothing, then the whole second pass, which has no
// early exit to take — and, since the prefix filter cuts in the first, hands
// on fewer assignments than the two passes hold. (On the catalog's three such
// placements every round of the first pass dies at the filter's root, so it
// hands on none and counts no cut.) The fault point between the passes is the
// second witness.
func TestSearchSweepPasses(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	var fallbacks atomic.Int64
	faultpoint.Arm(faultpoint.CoreSweepFallback, func() error { fallbacks.Add(1); return nil })
	for _, c := range catalogShapes {
		t.Run(c.name, func(t *testing.T) {
			p, opts := catalogPlacement(t, c.name)
			opts.Workers = 1
			fallbacks.Store(0)
			res, err := Search(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			onePass := func(maxNR int) int {
				total := 0
				for nr := 1; nr <= maxNR; nr++ {
					n, err := repetend.Count(p, nr)
					if err != nil {
						t.Fatal(err)
					}
					total += n
				}
				return total
			}
			st := res.Stats
			if fallbackShapes[c.name] {
				if st.EarlyExit || fallbacks.Load() != 1 || st.NRSwept != MaxInflight(p, opts.Memory) {
					t.Fatalf("early exit %v, %d fallbacks, swept to N_R %d of %d", st.EarlyExit, fallbacks.Load(), st.NRSwept, MaxInflight(p, opts.Memory))
				}
				if limit := 2 * onePass(st.NRSwept); st.Assignments == 0 || st.Assignments >= limit {
					t.Fatalf("%d assignments past %d prefix cuts (two full passes are %d)", st.Assignments, st.PrefixCuts, limit)
				}
				if res.Repetend.Period <= res.LowerBound {
					t.Fatalf("period %d reaches the lower bound %d after a failed first pass", res.Repetend.Period, res.LowerBound)
				}
				return
			}
			if limit := onePass(st.NRSwept); st.Assignments > limit || !st.EarlyExit || fallbacks.Load() != 0 {
				t.Fatalf("%d assignments (one pass to N_R %d is %d), early exit %v, %d fallbacks", st.Assignments, st.NRSwept, limit, st.EarlyExit, fallbacks.Load())
			}
			if res.Repetend.Period != res.LowerBound {
				t.Fatalf("period %d misses the lower bound %d, yet the first pass kept it", res.Repetend.Period, res.LowerBound)
			}
		})
	}
}

// TestFallbackPassEnumeratesEveryLeaf: the unaimed second pass walks its rounds
// unfiltered, so it counts every canonical leaf in Stats.Assignments —
// repetend.Count of them per round swept, or the budget's worth where
// MaxAssignments truncates the round (the leaf that breaks the budget is
// counted, not collected) — however many workers there are and whenever the
// incumbent moved, though it solves only the leaves that can still win. The
// first pass's share is what the filter yields at the lower bound, a constant
// too, so Stats.Assignments is one number for Workers 1/2/4.
func TestFallbackPassEnumeratesEveryLeaf(t *testing.T) {
	for _, name := range []string{"x8m4", "v6m4", "nn4m8"} {
		p, opts := catalogPlacement(t, name)
		filter, err := repetend.NewPrefixFilter(p)
		if err != nil {
			t.Fatal(err)
		}
		defer filter.Close()
		var aimed, all []int // leaves per round: past the filter at the lower bound, and in the tree
		for nr := 1; nr <= MaxInflight(p, opts.Memory); nr++ {
			n := 0
			filter.Enumerate(context.Background(), nr, p.LowerBound(), func(repetend.Assignment) bool { n++; return true })
			aimed = append(aimed, n)
			if n, err = repetend.Count(p, nr); err != nil {
				t.Fatal(err)
			}
			all = append(all, n)
		}
		largest := slices.Max(all)
		for _, budget := range []int{0, largest / 2} {
			capped := func(rounds []int) (total int) {
				for _, n := range rounds {
					if budget > 0 {
						n = min(n, budget+1)
					}
					total += n
				}
				return total
			}
			for _, workers := range []int{1, 2, 4} {
				opts.Workers, opts.MaxAssignments = workers, budget
				res, err := Search(context.Background(), p, opts)
				if err != nil {
					t.Fatalf("%s workers %d budget %d: %v", name, workers, budget, err)
				}
				st := res.Stats
				if st.EarlyExit || st.NRSwept != len(all) || st.Truncated != (budget > 0) {
					t.Fatalf("%s workers %d budget %d: early exit %v, swept to N_R %d of %d, truncated %v", name, workers, budget, st.EarlyExit, st.NRSwept, len(all), st.Truncated)
				}
				if got, want := st.Assignments-capped(aimed), capped(all); got != want {
					t.Fatalf("%s workers %d budget %d: the fallback pass walked %d of the %d leaves of its rounds %v", name, workers, budget, got, want, all)
				}
			}
		}
	}
}

// TestChaosCancelBetweenSweepPasses cancels the search at the one point where
// no worker is running to notice: after the first pass has come back empty and
// before the second starts. Search must return the context's error, not the
// "no feasible repetend" of an exhausted sweep.
func TestChaosCancelBetweenSweepPasses(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p, opts := catalogPlacement(t, "nn4m8")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultpoint.Arm(faultpoint.CoreSweepFallback, func() error { cancel(); return nil })
	res, err := Search(ctx, p, opts)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res %v err %v, want context.Canceled", res, err)
	}
	// An error armed at the point surfaces as Search's error.
	injected := errors.New("injected fallback fault")
	faultpoint.Arm(faultpoint.CoreSweepFallback, func() error { return injected })
	if _, err := Search(context.Background(), p, opts); !errors.Is(err, injected) {
		t.Fatalf("err %v, want the injected fault", err)
	}
	faultpoint.Disarm(faultpoint.CoreSweepFallback)
	if _, err := Search(context.Background(), p, opts); err != nil {
		t.Fatalf("search after the faults: %v", err)
	}
}

// firstPassUpToWinner does one by one what the first sweep pass of res's
// search does: it walks the rounds through a prefix filter at the lower bound
// — the walk the sweep splits between the Search goroutine and its solvers,
// in one piece — and solves each assignment that gets through until one
// reaches the bound, which must be the search's winner. visit, when non-nil, sees every solve
// with the effort so far before and after it; the result is the total effort,
// the filter's included, and the winner.
func firstPassUpToWinner(t *testing.T, res *Result, visit func(a repetend.Assignment, err error, before, after repetend.Effort)) (repetend.Effort, *repetend.Repetend) {
	t.Helper()
	p := res.Placement
	var floor repetend.Effort
	ro := repetend.SolveOptions{PeriodUpperBound: res.LowerBound, Effort: &floor}
	filter, err := repetend.NewPrefixFilter(p)
	if err != nil {
		t.Fatal(err)
	}
	defer filter.Close()
	var winner *repetend.Repetend
	for nr := 1; nr <= res.Repetend.NR && winner == nil; nr++ {
		filter.Enumerate(context.Background(), nr, res.LowerBound, func(a repetend.Assignment) bool {
			before := floor
			winner, err = repetend.Solve(context.Background(), p, a, ro)
			if visit != nil {
				visit(a, err, before, floor)
			}
			return winner == nil
		})
		floor.Add(filter.Effort())
	}
	if winner == nil || winner.Assign.Compare(res.Repetend.Assign) != 0 {
		t.Fatalf("enumeration reaches the bound first at %v, the search returned %v", winner, res.Repetend.Assign)
	}
	return floor, winner
}

// TestSearchStatsCoverPrunedAssignments: the effort counters sum over every
// solve that ran, not only over the assignments that came back as repetends.
// Since the order check, an assignment of a lower-bound-reaching placement
// gets as far as the solver only if some per-device order does reach the bound
// — and on the K-shape with six devices the instance solve and local search
// miss that order for four assignments before the winner. Their solves, probes
// and swaps are most of what the search reports. The floor is taken
// independently: the assignments the prefix filter lets through at the lower
// bound solved one by one, in enumeration order up to the winner, as the
// sweep solves them — plus the filter's own checks and cuts on the way there,
// the order checks at prefixes among them, which the search's totals must
// cover too. (The sweep's own total may sit above the floor by the subtree its
// solver takes on while the Search goroutine is still verifying the winner.)
// Of the order check's discards, those at a leaf are among the pruned
// assignments and those at a prefix among the cuts.
func TestSearchStatsCoverPrunedAssignments(t *testing.T) {
	p, opts := catalogPlacement(t, "k6")
	opts.Workers = 1
	res, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	missed := 0 // let through by the check, pruned after solve and local search
	var winnerNodes, winnerSwaps int64
	floor, _ := firstPassUpToWinner(t, res, func(a repetend.Assignment, err error, before, after repetend.Effort) {
		if err == nil {
			winnerNodes, winnerSwaps = after.SolverNodes-before.SolverNodes, after.LocalSearchSwaps-before.LocalSearchSwaps
		}
		if err != nil && after.OrderChecks > before.OrderChecks && after.OrderPruned == before.OrderPruned {
			if !errors.Is(err, repetend.ErrPruned) || after.SolverNodes+after.PeriodProbes == before.SolverNodes+before.PeriodProbes {
				t.Fatalf("%v passed the order check and then: err %v, effort %+v after %+v", a, err, after, before)
			}
			missed++
		}
	})
	if missed < 2 || floor.SolverNodes < 4*winnerNodes || floor.LocalSearchSwaps <= winnerSwaps {
		t.Fatalf("this placement no longer prunes after solving: %d assignments missed by the heuristic, effort %+v, of which the winner %d nodes and %d swaps",
			missed, floor, winnerNodes, winnerSwaps)
	}
	if floor.PrefixCuts < 100 || floor.OrderPruned < 10 {
		t.Fatalf("this placement no longer prunes at prefixes and at leaves both: %+v", floor)
	}
	st := res.Stats
	got := repetend.Effort{
		SolverNodes: st.SolverNodes, SolverMemoHits: st.SolverMemoHits, PeriodProbes: st.PeriodProbes, PeriodRelaxations: st.PeriodRelaxations,
		LocalSearchSwaps: st.LocalSearchSwaps, OrderChecks: st.OrderChecks, OrderPruned: st.OrderPruned, OrderNodes: st.OrderNodes,
		PrefixChecks: st.PrefixChecks, PrefixCuts: st.PrefixCuts,
	}
	for _, c := range []struct {
		name         string
		got, atLeast int64
	}{
		{"solver nodes", got.SolverNodes, floor.SolverNodes}, {"memo hits", got.SolverMemoHits, floor.SolverMemoHits},
		{"period probes", got.PeriodProbes, floor.PeriodProbes}, {"relaxations", got.PeriodRelaxations, floor.PeriodRelaxations},
		{"swaps", got.LocalSearchSwaps, floor.LocalSearchSwaps}, {"order checks", got.OrderChecks, floor.OrderChecks},
		{"order pruned", got.OrderPruned, floor.OrderPruned}, {"order nodes", got.OrderNodes, floor.OrderNodes},
		{"prefix checks", got.PrefixChecks, floor.PrefixChecks}, {"prefix cuts", got.PrefixCuts, floor.PrefixCuts},
	} {
		if c.got < c.atLeast {
			t.Errorf("search reports %d %s; the assignments up to the winner alone account for %d", c.got, c.name, c.atLeast)
		}
	}
	if st.Solved < 1 || st.OrderPruned > int64(st.Pruned)+st.PrefixCuts || st.OrderChecks < st.OrderPruned+int64(st.Solved) || st.PeriodProbes < int64(st.Pruned) {
		t.Fatalf("counters do not add up: %+v", st)
	}
}

// TestPrefixChecksUpToTheWinner: with every dependency path entering the
// filter as one edge, rounds too shallow for the pipeline die at the root and
// the first pass reaches its winner in few checks, counted one by one as
// firstPassUpToWinner counts them. Each edge at its own loosest lag took
// 2,237, 4,089, 3,655 and 811.
func TestPrefixChecksUpToTheWinner(t *testing.T) {
	for _, c := range []struct {
		name string
		most int64
	}{{"v6", 100}, {"x8i", 150}, {"nn6i", 1100}, {"k6", 400}} {
		p, opts := catalogPlacement(t, c.name)
		opts.Workers = 1
		res, err := Search(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if floor, _ := firstPassUpToWinner(t, res, nil); floor.PrefixChecks == 0 || floor.PrefixChecks > c.most {
			t.Errorf("%s: %d prefix checks up to the winner, want 1 to %d", c.name, floor.PrefixChecks, c.most)
		}
	}
}

// TestAimedPassEffort pins the work of the aimed pass on the two catalog
// placements whose first pass is nearly all order check, at Workers 1. With
// one check per leaf the parent of the split walk handed m4 888 leaves to
// Solve and m8i ~780, and discarded all but a few at 12,388 and 1,820 branch
// nodes of the check. Checked at the prefixes of the walk's last levels, one
// failed decision discards every leaf below it: Solve sees at most five
// leaves of either — the winner, what its subtree holds after it, and what a
// solver takes on while the winner is judged — and the checks branch no more
// in total than the per-leaf checks did.
func TestAimedPassEffort(t *testing.T) {
	for _, c := range []struct {
		name  string
		nodes int64
	}{{"m4", 12388}, {"m8i", 1820}} {
		p, opts := catalogPlacement(t, c.name)
		opts.Workers = 1
		res, err := Search(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if solves := st.Solved + st.Pruned; !st.EarlyExit || solves > 5 || st.OrderNodes > c.nodes {
			t.Errorf("%s: %d leaves solved or pruned by Solve, %d branch nodes, early exit %v; want at most 5 and %d", c.name, solves, st.OrderNodes, st.EarlyExit, c.nodes)
		}
	}
}

// subtreesUpToWinner hands out, one by one, the subtrees the first sweep pass
// of res's search hands its solvers — Split at the lower bound — up to and
// including the one that holds the winner, and walks and solves each whole, as
// a solver does. It returns their prefixes (repetend.Subtree.Prefix), and the
// effort of their walks and solves and the number of leaves that reach the
// bound twice: up to the winner, and with the rest of its subtree.
func subtreesUpToWinner(t *testing.T, res *Result) (prefixes map[string]bool, atWinner, whole repetend.Effort, solvedAtWinner, solved int) {
	t.Helper()
	p, ctx := res.Placement, context.Background()
	eff := &whole
	ro := repetend.SolveOptions{PeriodUpperBound: res.LowerBound, Effort: eff}
	split, err := repetend.NewPrefixFilter(p)
	if err != nil {
		t.Fatal(err)
	}
	defer split.Close()
	walk, err := repetend.NewPrefixFilter(p)
	if err != nil {
		t.Fatal(err)
	}
	defer walk.Close()
	prefixes = map[string]bool{}
	var winner *repetend.Repetend
	for nr := 1; nr <= res.Repetend.NR && winner == nil; nr++ {
		split.Split(ctx, nr, res.LowerBound, func(sub *repetend.Subtree) bool {
			prefixes[fmt.Sprint(sub.Prefix())] = true
			var leaves []repetend.Assignment
			walk.Walk(ctx, sub, func(a repetend.Assignment) bool { leaves = append(leaves, a); return true })
			eff.Add(walk.Effort())
			for _, a := range leaves {
				r, _ := repetend.Solve(ctx, p, a, ro)
				if r != nil {
					solved++
				}
				if r != nil && winner == nil {
					winner, atWinner, solvedAtWinner = r, *eff, solved
				}
			}
			return winner == nil
		})
		eff.Add(split.Effort())
	}
	if winner == nil || winner.Assign.Compare(res.Repetend.Assign) != 0 {
		t.Fatalf("enumeration reaches the bound first at %v, the search returned %v", winner, res.Repetend.Assign)
	}
	return prefixes, atWinner, whole, solvedAtWinner, solved
}

// TestSearchEarlyExitCancelsSpeculation: once the Search goroutine has judged
// a repetend at the lower bound, a solver that is already on a later subtree
// is cancelled, not waited for. The hook holds every such job back until its
// context ends — with one worker that leaves the search's solver effort
// between that of the subtrees up to the winner and that of the same subtrees
// walked whole: the solver goes on with the winner's subtree while the winner
// is judged, until the cancel reaches it — and the search still returns a nil
// error and the schedule it returns undisturbed.
func TestSearchEarlyExitCancelsSpeculation(t *testing.T) {
	p, opts := catalogPlacement(t, "x4")
	opts.Workers = 1
	want, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The subtrees a sweep hands out up to and including the winner's, and
	// what walking and solving them one by one costs.
	upTo, floor, ceil, solvedFloor, solvedCeil := subtreesUpToWinner(t, want)

	var held, cancelled atomic.Int64
	sweepSolveHook = func(ctx context.Context, prefix repetend.Assignment, _ int) {
		if upTo[fmt.Sprint(prefix)] {
			return
		}
		held.Add(1)
		select {
		case <-ctx.Done():
			cancelled.Add(1)
		case <-time.After(10 * time.Second):
		}
	}
	t.Cleanup(func() { sweepSolveHook = nil })
	// Whether a later subtree reaches a solver before the Search goroutine
	// ends the sweep is a race: on a busy machine the solver may find nothing
	// queued behind the winner. Such a search exercises nothing, so it is
	// checked like the others and then run again. One solver rarely gets past
	// the winner's subtree before the cancel — it takes the next job only once
	// it has finished that one — so only two are held to getting there.
	const attempts = 20
	for _, workers := range []int{1, 2} {
		opts.Workers = workers
		for attempt := 1; ; attempt++ {
			held.Store(0)
			cancelled.Store(0)
			res, err := Search(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			if held.Load() != cancelled.Load() {
				t.Fatalf("workers %d: %d speculative jobs held, %d cancelled by the early exit", workers, held.Load(), cancelled.Load())
			}
			if got, want := sched.FingerprintSchedule(res.Full), sched.FingerprintSchedule(want.Full); got != want {
				t.Fatalf("workers %d: schedule fingerprint %s, want %s", workers, got, want)
			}
			st := res.Stats
			if workers == 1 && (st.SolverNodes < floor.SolverNodes || st.SolverNodes > ceil.SolverNodes ||
				st.LocalSearchSwaps < floor.LocalSearchSwaps || st.LocalSearchSwaps > ceil.LocalSearchSwaps || st.Solved < solvedFloor || st.Solved > solvedCeil) {
				t.Fatalf("a cancelled job spent effort: %d nodes, %d swaps, %d solved; up to the winner it is %d nodes, %d swaps, %d solved, with the rest of its subtree %d, %d, %d",
					st.SolverNodes, st.LocalSearchSwaps, st.Solved, floor.SolverNodes, floor.LocalSearchSwaps, solvedFloor, ceil.SolverNodes, ceil.LocalSearchSwaps, solvedCeil)
			}
			if workers == 1 || held.Load() > 0 {
				break
			}
			if attempt == attempts {
				t.Fatalf("workers %d: in %d searches no subtree past the winner's reached a worker; the placement does not exercise the cancel", workers, attempts)
			}
		}
	}
}

// TestSearchLeavesNoGoroutines: every solver goroutine a round starts is gone
// once Search returns, whichever way it returns — an early exit, both passes
// run to the end, a context cancelled while a job is in flight, a completion
// solve that fails, a job that panics before its walk or in one of its
// leaves' solves, which Search re-raises. The goroutine count must come back to
// what it was before the call.
func TestSearchLeavesNoGoroutines(t *testing.T) {
	injected := errors.New("injected completion fault")
	for _, c := range []struct {
		name, shape string
		// arm sets the fault up; cancel cancels the search's context.
		arm       func(cancel context.CancelFunc)
		wantErr   error
		wantPanic bool
	}{
		{name: "early exit", shape: "v6"},
		{name: "both passes", shape: "x8m4"},
		{name: "cancelled mid-sweep", shape: "m4", wantErr: context.Canceled, arm: func(cancel context.CancelFunc) {
			// Hold the first job until the cancel has reached it.
			sweepSolveHook = func(ctx context.Context, _ repetend.Assignment, _ int) { cancel(); <-ctx.Done() }
		}},
		{name: "completion error", shape: "v6", wantErr: injected, arm: func(context.CancelFunc) {
			faultpoint.Arm(faultpoint.SolverSolve, func() error {
				if strings.Contains(string(debug.Stack()), "core.checkCompletion") {
					return injected
				}
				return nil
			})
		}},
		{name: "solver panic", shape: "v6", wantPanic: true, arm: func(context.CancelFunc) {
			sweepSolveHook = func(context.Context, repetend.Assignment, int) { panic("injected solver crash") }
		}},
		{name: "panic in a leaf's solve", shape: "v6", wantPanic: true, arm: func(context.CancelFunc) {
			faultpoint.Arm(faultpoint.SolverSolve, func() error {
				if strings.Contains(string(debug.Stack()), "core.(*solveJob).run") {
					panic("injected crash in a leaf's solve")
				}
				return nil
			})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() { faultpoint.Reset(); sweepSolveHook = nil }()
			p, opts := catalogPlacement(t, c.shape)
			opts.Workers = 4
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.arm != nil {
				c.arm(cancel)
			}
			before := runtime.NumGoroutine()
			var err error
			recovered := func() (pv any) {
				defer func() { pv = recover() }()
				_, err = Search(ctx, p, opts)
				return nil
			}()
			if (recovered != nil) != c.wantPanic || !errors.Is(err, c.wantErr) {
				t.Fatalf("err %v, panic %v; want err %v, panic %v", err, recovered, c.wantErr, c.wantPanic)
			}
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if after > before {
				t.Fatalf("%d goroutines before Search, %d after it returned", before, after)
			}
		})
	}
}
