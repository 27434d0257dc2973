package repetend_test

// The order check at sweep and search level: everything it discards the
// unchanged pipeline discards too, a search returns the same bytes with the
// check on, off and capped at the root, and — the claim it makes executable —
// the N_R Algorithm 1 stops at is the smallest that admits any order at the
// lower bound.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tessel/internal/core"
	"tessel/internal/placement"
	"tessel/internal/repetend"
	"tessel/internal/sched"
)

// passOne walks the first sweep pass of a search over c — every assignment in
// enumeration order, solved against the device-work lower bound — until one
// reaches the bound, and hands each to visit with the options it was solved
// under, the effort it took and its outcome.
func passOne(t *testing.T, c repetend.CatalogShape, visit func(p *sched.Placement, a repetend.Assignment, opts repetend.SolveOptions, eff repetend.Effort, r *repetend.Repetend, err error)) {
	t.Helper()
	p := c.Placement(t)
	opts := repetend.SolveOptions{
		Memory:           c.Memory,
		PeriodUpperBound: p.LowerBound(),
	}
	reached := false
	for nr := 1; nr <= core.MaxInflight(p, c.Memory) && !reached; nr++ {
		if _, err := repetend.Enumerate(p, nr, func(a repetend.Assignment) bool {
			var eff repetend.Effort
			o := opts
			o.Effort = &eff
			r, err := repetend.Solve(context.Background(), p, a, o)
			visit(p, a, opts, eff, r, err)
			reached = r != nil
			return !reached
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOrderCheckDiscardsOnlyWhatThePipelineDiscards: over the first sweep pass
// of all 21 catalog placements, every assignment the check prunes comes back
// ErrPruned from the pipeline the check sits in front of — instance solve,
// minPeriod, local search, period > bound — when the check is switched off.
// The worst check of the catalog stays under half the node cap.
func TestOrderCheckDiscardsOnlyWhatThePipelineDiscards(t *testing.T) {
	type discarded struct {
		p    *sched.Placement
		a    repetend.Assignment
		opts repetend.SolveOptions
		name string
	}
	var pruned []discarded
	var checks, worst int64
	for _, c := range repetend.Catalog {
		passOne(t, c, func(p *sched.Placement, a repetend.Assignment, opts repetend.SolveOptions, eff repetend.Effort, r *repetend.Repetend, err error) {
			checks += eff.OrderChecks
			worst = max(worst, eff.OrderNodes)
			if eff.OrderPruned == 0 {
				return
			}
			if !errors.Is(err, repetend.ErrPruned) || eff.SolverNodes != 0 || eff.LocalSearchSwaps != 0 {
				t.Fatalf("%s %v: order-pruned, yet err %v and effort %+v", c.Name, a, err, eff)
			}
			pruned = append(pruned, discarded{p, a, opts, c.Name})
		})
	}
	t.Logf("%d checks, %d pruned, worst check %d branch nodes (cap %d)", checks, len(pruned), worst, repetend.OrderNodeCap)
	if len(pruned) < 5000 {
		t.Fatalf("only %d assignments order-pruned over the catalog; the check has stopped firing", len(pruned))
	}
	if worst == 0 || worst >= repetend.OrderNodeCap/2 {
		t.Fatalf("worst check took %d branch nodes; the cap of %d wants it above zero and under half", worst, repetend.OrderNodeCap)
	}
	repetend.SetOrderNodeLimit(t, -1)
	for _, d := range pruned {
		var eff repetend.Effort
		d.opts.Effort = &eff
		r, err := repetend.Solve(context.Background(), d.p, d.a, d.opts)
		if r != nil || !errors.Is(err, repetend.ErrPruned) || eff.OrderChecks != 0 {
			t.Fatalf("%s %v: the check pruned it; without the check: repetend %v, err %v, effort %+v", d.name, d.a, r, err, eff)
		}
	}
}

// randomShape draws one instance of the differential below: one of the five
// paper shapes on 2–4 devices with random block times, a third of them as
// inference placements and a third under a memory cap — or, capped, all of
// them under one (internal/core's memory-capped draws).
func randomShape(rng *rand.Rand, capped bool) (*sched.Placement, int, error) {
	builders := []func(placement.Config) (*sched.Placement, error){
		placement.VShape, placement.XShape, placement.MShape, placement.NNShape, placement.KShape,
	}
	b := rng.Intn(len(builders))
	cfg := placement.Config{
		Devices: 2 + rng.Intn(3),
		Fwd:     1 + rng.Intn(3),
		Bwd:     1 + rng.Intn(4),
		EmbFwd:  1 + rng.Intn(3),
		EmbBwd:  1 + rng.Intn(4),
	}
	if b == 4 {
		cfg.Devices = 2 * (1 + rng.Intn(2)) // K-shape needs an even depth
	}
	p, err := builders[b](cfg)
	if err != nil {
		return nil, 0, err
	}
	kind := 1 // capped
	if !capped {
		kind = rng.Intn(3)
	}
	memory := 0
	switch kind {
	case 0:
		p = placement.Inference(p)
	case 1:
		memory = 3 + rng.Intn(6)
	}
	p.Name = fmt.Sprintf("%s-d%d-%d/%d/%d/%d-m%d", p.Name, cfg.Devices, cfg.Fwd, cfg.Bwd, cfg.EmbFwd, cfg.EmbBwd, memory)
	return p, memory, nil
}

// TestOrderCheckSearchDifferential: 120 seeded random placements searched with
// the check on and off give the same repetend — period, N_R, assignment — and
// the same completed schedule, byte for byte. A placement no search completes
// is counted, and must fail the same way both times. Under the race detector
// the two or three placements whose unchecked search alone takes a minute
// there (uncapped NN-shape training on four devices: thousands of discards,
// each an instance solve and a local search once the check is off) are left
// out, and counted.
func TestOrderCheckSearchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type outcome struct {
		res *core.Result
		err error
	}
	search := func(p *sched.Placement, memory, workers int) outcome {
		res, err := core.Search(context.Background(), p, core.Options{Memory: memory, N: 8, Workers: workers})
		return outcome{res, err}
	}
	type instance struct {
		p      *sched.Placement
		memory int
		on     outcome
	}
	var instances []instance
	var discarded int64
	for len(instances) < 120 {
		p, memory, err := randomShape(rng, false)
		if err != nil {
			t.Fatal(err)
		}
		on := search(p, memory, 1+len(instances)%2)
		if on.err == nil {
			discarded += on.res.Stats.OrderPruned
		}
		instances = append(instances, instance{p, memory, on})
	}
	repetend.SetOrderNodeLimit(t, -1)
	unsearchable, tooSlow := 0, 0
	for i, in := range instances {
		if raceDetector && in.on.err == nil && in.on.res.Stats.OrderPruned > 2000 {
			tooSlow++
			continue
		}
		off := search(in.p, in.memory, 1+i%2)
		if in.on.err != nil || off.err != nil {
			if in.on.err == nil || off.err == nil || in.on.err.Error() != off.err.Error() {
				t.Fatalf("%s: check on: %v; check off: %v", in.p.Name, in.on.err, off.err)
			}
			unsearchable++
			continue
		}
		if off.res.Stats.OrderChecks != 0 {
			t.Fatalf("%s: %d checks ran with the check off", in.p.Name, off.res.Stats.OrderChecks)
		}
		a, b := in.on.res.Repetend, off.res.Repetend
		if a.Period != b.Period || a.NR != b.NR || !slices.Equal(a.Assign, b.Assign) {
			t.Fatalf("%s: check on: period %d N_R %d %v; off: period %d N_R %d %v", in.p.Name, a.Period, a.NR, a.Assign, b.Period, b.NR, b.Assign)
		}
		if fa, fb := sched.FingerprintSchedule(in.on.res.Full), sched.FingerprintSchedule(off.res.Full); fa != fb {
			t.Fatalf("%s: schedule fingerprint %s with the check, %s without", in.p.Name, fa, fb)
		}
	}
	t.Logf("%d placements, %d without a repetend either way, %d left out as too slow under -race, %d subtrees and assignments discarded by the check", len(instances), unsearchable, tooSlow, discarded)
	if unsearchable > len(instances)/4 || tooSlow > 4 || discarded < 1000 {
		t.Fatalf("the sample has gone soft: %d of %d placements unsearchable, %d left out, %d subtrees and assignments discarded by the check", unsearchable, len(instances), tooSlow, discarded)
	}
}

// TestOrderCheckCapIsNotAVerdict: with the node cap at zero a check decides
// only what forced-pair propagation decides at its root and otherwise answers
// "undecided" — so it prunes less, never differently: the searches return the
// bytes they return uncapped. The checks at the last levels of the walk then
// decide what propagation there decides, which cuts the subtree as a failed
// push above them would: every discard of the check is a cut at a prefix. A
// leaf past them carries its own check's root matrix at the last level, so no
// Solve discards one by its check. At one worker the sweep counts the leaves
// it walks up to the winner, and under the cap no fewer survive; on the
// shapes that branch, more do.
func TestOrderCheckCapIsNotAVerdict(t *testing.T) {
	type golden struct {
		fingerprint string
		leaves      int
	}
	want := map[string]golden{}
	shapes := []string{"m4", "k6", "m8i", "x4", "m4i"}
	search := func(name string) *core.Result {
		i := slices.IndexFunc(repetend.Catalog, func(c repetend.CatalogShape) bool { return c.Name == name })
		c := repetend.Catalog[i]
		res, err := core.Search(context.Background(), c.Placement(t), core.Options{Memory: c.Memory, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, name := range shapes {
		res := search(name)
		if res.Stats.OrderNodes == 0 || res.Stats.PrefixCuts == 0 {
			t.Fatalf("%s: %d branch nodes, %d prefix cuts; the shape does not exercise the cap", name, res.Stats.OrderNodes, res.Stats.PrefixCuts)
		}
		want[name] = golden{sched.FingerprintSchedule(res.Full), res.Stats.Assignments}
	}
	repetend.SetOrderNodeLimit(t, 0)
	for _, name := range shapes {
		res := search(name)
		p := res.Placement
		f, err := repetend.NewPrefixFilter(p)
		if err != nil {
			t.Fatal(err)
		}
		for nr := 1; nr <= res.Repetend.NR; nr++ {
			f.Enumerate(context.Background(), nr, res.LowerBound, func(a repetend.Assignment) bool {
				var eff repetend.Effort
				repetend.Solve(context.Background(), p, a, repetend.SolveOptions{PeriodUpperBound: res.LowerBound, Effort: &eff})
				if eff.OrderPruned != 0 {
					t.Fatalf("%s N_R %d: %v pruned by propagation at the root of its check, after the filter let it through", name, nr, a)
				}
				return true
			})
		}
		f.Close()
		if got := sched.FingerprintSchedule(res.Full); got != want[name].fingerprint {
			t.Fatalf("%s: schedule fingerprint %s under a zero cap, %s uncapped", name, got, want[name].fingerprint)
		}
		st := res.Stats
		if st.OrderNodes != 0 {
			t.Fatalf("%s: %d branch nodes under a zero cap", name, st.OrderNodes)
		}
		if st.OrderChecks == 0 || st.OrderPruned > st.PrefixCuts {
			t.Fatalf("%s: %d checks, %d of them discarding, %d prefix cuts under a zero cap; each discard should be a cut", name, st.OrderChecks, st.OrderPruned, st.PrefixCuts)
		}
		if st.Assignments < want[name].leaves {
			t.Fatalf("%s: %d leaves walked up to the winner under a zero cap, %d uncapped", name, st.Assignments, want[name].leaves)
		}
		if branches := name == "m4" || name == "m8i"; branches && st.Assignments < 100*want[name].leaves {
			t.Fatalf("%s: %d leaves walked up to the winner under a zero cap, %d uncapped; the check at a prefix has stopped cutting", name, st.Assignments, want[name].leaves)
		}
	}
}

// TestRepetendSizeIsMinimalAtTheLowerBound is the paper's claim for
// Algorithm 1 — the sweep stops at the smallest N_R whose repetend reaches the
// device-work lower bound — held to the letter: for each catalog placement
// that reaches the bound, no assignment of any smaller N_R admits ANY
// per-device order at the bound. Every one of them is ruled out by a proof
// over all orders (memory at entry, the relaxation, or the exact check), none
// by an instance solve and local search that merely failed to find one. The
// rounds are walked the way a search walks them, through the prefix filter: a
// cut is the relaxation's proof, or the check's, for every assignment under it
// at once (TestPrefixFilterCatalogCutsAreProofs re-derives each from Solve),
// and what the filter lets through must be proven by Solve here.
func TestRepetendSizeIsMinimalAtTheLowerBound(t *testing.T) {
	reaching := 0
	for _, c := range repetend.Catalog {
		p := c.Placement(t)
		res, err := core.Search(context.Background(), p, core.Options{Memory: c.Memory})
		if err != nil {
			t.Fatal(err)
		}
		if res.Repetend.Period != res.LowerBound {
			continue
		}
		reaching++
		smaller, solved := 0, 0
		opts := repetend.SolveOptions{Memory: c.Memory, PeriodUpperBound: res.LowerBound}
		f, err := repetend.NewPrefixFilter(p)
		if err != nil {
			t.Fatal(err)
		}
		for nr := 1; nr < res.Repetend.NR; nr++ {
			n, err := repetend.Count(p, nr)
			if err != nil {
				t.Fatal(err)
			}
			smaller += n
			f.Enumerate(context.Background(), nr, res.LowerBound, func(a repetend.Assignment) bool {
				var eff repetend.Effort
				o := opts
				o.Effort = &eff
				_, err := repetend.Solve(context.Background(), p, a, o)
				if err == nil || eff.OrderChecks != eff.OrderPruned || eff.SolverNodes != 0 {
					t.Fatalf("%s: N_R %d assignment %v is not proven out of reach of the lower bound %d (the search stopped at N_R %d): err %v, effort %+v",
						c.Name, nr, a, res.LowerBound, res.Repetend.NR, err, eff)
				}
				solved++
				return true
			})
		}
		f.Close()
		t.Logf("%s: N_R %d; all %d assignments of smaller N_R proven infeasible at period %d, %d of them one by one past the filter", c.Name, res.Repetend.NR, smaller, res.LowerBound, solved)
	}
	if reaching != 18 {
		t.Fatalf("%d catalog placements reach their lower bound, want 18", reaching)
	}
}
