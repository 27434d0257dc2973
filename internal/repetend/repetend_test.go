package repetend

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"tessel/internal/placement"
	"tessel/internal/sched"
)

func vshape(t *testing.T, d int) *sched.Placement {
	t.Helper()
	p, err := placement.VShape(placement.Config{Devices: d})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEnumerateNR1(t *testing.T) {
	p := vshape(t, 4)
	var got []Assignment
	complete, err := Enumerate(p, 1, func(a Assignment) bool {
		got = append(got, a)
		return true
	})
	if err != nil || !complete {
		t.Fatalf("complete=%v err=%v", complete, err)
	}
	if len(got) != 1 {
		t.Fatalf("NR=1 should yield exactly the all-zero assignment, got %d", len(got))
	}
	for _, r := range got[0] {
		if r != 0 {
			t.Fatalf("assignment = %v", got[0])
		}
	}
}

func TestEnumerateCanonicalAndPruned(t *testing.T) {
	p := vshape(t, 3) // chain of 6 stages
	for nr := 1; nr <= 4; nr++ {
		n := 0
		if _, err := Enumerate(p, nr, func(a Assignment) bool {
			n++
			if err := a.Validate(p, nr); err != nil {
				t.Fatalf("nr=%d: %v", nr, err)
			}
			min, max := a[0], a[0]
			for _, r := range a {
				if r < min {
					min = r
				}
				if r > max {
					max = r
				}
			}
			if min != 0 || max != nr-1 {
				t.Fatalf("nr=%d non-canonical assignment %v", nr, a)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("nr=%d yielded nothing", nr)
		}
	}
}

func TestEnumerateCountsChain(t *testing.T) {
	// For a chain of K stages, assignments are non-increasing sequences over
	// [0,nr) hitting both 0 and nr−1. Counting via Enumerate must match a
	// direct combinatorial recount.
	p := vshape(t, 2) // chain of 4
	for nr := 1; nr <= 4; nr++ {
		got, err := Count(p, nr)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		var rec func(pos, prev int, saw0, sawMax bool)
		rec = func(pos, prev int, saw0, sawMax bool) {
			if pos == 4 {
				if saw0 && sawMax {
					want++
				}
				return
			}
			for v := 0; v <= prev; v++ {
				rec(pos+1, v, saw0 || v == 0, sawMax || v == nr-1)
			}
		}
		rec(0, nr-1, false, false)
		if got != want {
			t.Fatalf("nr=%d: Count=%d want %d", nr, got, want)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	p := vshape(t, 4)
	n := 0
	complete, err := Enumerate(p, 3, func(Assignment) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if complete || n != 2 {
		t.Fatalf("complete=%v n=%d, want stopped after 2", complete, n)
	}
}

func TestEnumerateBadNR(t *testing.T) {
	p := vshape(t, 4)
	if _, err := Enumerate(p, 0, func(Assignment) bool { return true }); err == nil {
		t.Fatal("nr=0 accepted")
	}
}

func TestAssignmentValidate(t *testing.T) {
	p := vshape(t, 2) // f0→f1→b1→b0
	good := Assignment{1, 0, 0, 0}
	if err := good.Validate(p, 2); err != nil {
		t.Fatal(err)
	}
	bad := Assignment{0, 1, 0, 0} // f0 index < f1 index violates 4.2
	if err := bad.Validate(p, 2); err == nil {
		t.Fatal("property 4.2 violation accepted")
	}
	short := Assignment{0}
	if err := short.Validate(p, 2); err == nil {
		t.Fatal("short assignment accepted")
	}
	outOfRange := Assignment{5, 0, 0, 0}
	if err := outOfRange.Validate(p, 2); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestEntryMemory(t *testing.T) {
	p := vshape(t, 4)
	// 1F1B-like assignment: f indices 3,2,1,0; b indices all 0.
	a := Assignment{3, 2, 1, 0, 0, 0, 0, 0}
	mem := EntryMemory(p, a, 0)
	want := []int{3, 2, 1, 0} // r_i forwards (+1 each) started, no backwards
	for d := range want {
		if mem[d] != want[d] {
			t.Fatalf("device %d entry = %d, want %d", d, mem[d], want[d])
		}
	}
	// Instance k begins with k more micro-batches of every stage started:
	// with backwards that free nothing, k more forwards held per device.
	for i := range p.Stages {
		p.Stages[i].Mem = max(p.Stages[i].Mem, 0)
	}
	if got, want := EntryMemory(p, a, 2), []int{5, 4, 3, 2}; !slices.Equal(got, want) {
		t.Fatalf("entry of instance 2 = %v, want %v", got, want)
	}
}

func TestSolveVShapeZeroBubbleAtNR4(t *testing.T) {
	// The pipeline assignment on V-shape (fwd=1,bwd=2) admits period 3 =
	// the per-device work: a zero-bubble repetend, as Figure 11 reports for
	// NR = D = 4.
	p := vshape(t, 4)
	a := Assignment{3, 2, 1, 0, 0, 0, 0, 0}
	r, err := Solve(context.Background(), p, a, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Period != 3 {
		t.Fatalf("period = %d, want 3 (zero bubble)", r.Period)
	}
	if br := r.SteadyBubbleRate(); br != 0 {
		t.Fatalf("bubble rate = %f, want 0", br)
	}
	if r.NR != 4 {
		t.Fatalf("NR = %d, want 4", r.NR)
	}
}

func TestSolveSpansAndWaits(t *testing.T) {
	p := vshape(t, 4)
	a := Assignment{3, 2, 1, 0, 0, 0, 0, 0}
	r, err := Solve(context.Background(), p, a, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Equation 4: t_R = E_d + W_d per device, E_d the last finish minus the
	// first start of the device's blocks and W_d ≥ 0 its idle wait.
	for d := 0; d < 4; d++ {
		first, last := -1, 0
		for _, i := range p.DeviceStages(sched.DeviceID(d)) {
			if first < 0 || r.Starts[i] < first {
				first = r.Starts[i]
			}
			last = max(last, r.Starts[i]+p.Stages[i].Time)
		}
		span := last - first
		if wait := r.Period - span; wait < 0 {
			t.Fatalf("device %d: span %d leaves wait %d < 0 in period %d", d, span, wait, r.Period)
		}
		if span < p.DeviceWork(sched.DeviceID(d)) {
			t.Fatalf("device %d: span %d below work", d, span)
		}
	}
}

func TestSolveSequentialAssignment(t *testing.T) {
	// All-zero assignment = sequential execution: period is the full chain.
	p := vshape(t, 4)
	a := Assignment{0, 0, 0, 0, 0, 0, 0, 0}
	r, err := Solve(context.Background(), p, a, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Period != 12 {
		t.Fatalf("period = %d, want 12 (full chain)", r.Period)
	}
	if br := r.SteadyBubbleRate(); br < 0.74 || br > 0.76 {
		t.Fatalf("bubble = %f, want 0.75", br)
	}
}

func TestSolveRejectsEntryMemoryOverflow(t *testing.T) {
	p := vshape(t, 4)
	a := Assignment{3, 2, 1, 0, 0, 0, 0, 0} // device 0 entry memory 3
	_, err := Solve(context.Background(), p, a, SolveOptions{Memory: 2})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveRejectsMemoryDrift(t *testing.T) {
	p := vshape(t, 2)
	p.Stages[0].Mem = 2 // forward +2, backward −1: net +1 per instance
	a := Assignment{0, 0, 0, 0}
	_, err := Solve(context.Background(), p, a, SolveOptions{Memory: 10})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible (drift)", err)
	}
}

func TestUnrollValidates(t *testing.T) {
	p := vshape(t, 4)
	a := Assignment{3, 2, 1, 0, 0, 0, 0, 0}
	r, err := Solve(context.Background(), p, a, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 5} {
		s := r.Unroll(k)
		if s.Len() != k*p.K() {
			t.Fatalf("unroll(%d) has %d items", k, s.Len())
		}
		if err := s.Validate(sched.ValidateOptions{Memory: sched.Unbounded}); err != nil {
			t.Fatalf("unroll(%d): %v", k, err)
		}
	}
}

func TestUnrollMicroProgression(t *testing.T) {
	p := vshape(t, 4)
	a := Assignment{3, 2, 1, 0, 0, 0, 0, 0}
	r, err := Solve(context.Background(), p, a, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Unroll(3)
	// Stage 3 (f3) appears with micros 0,1,2 at starts spaced by the period.
	var starts []int
	for _, it := range s.Items {
		if it.Stage == 3 {
			starts = append(starts, it.Start)
		}
	}
	if len(starts) != 3 {
		t.Fatalf("stage 3 appears %d times", len(starts))
	}
	for j := 1; j < 3; j++ {
		if starts[j]-starts[j-1] != r.Period {
			t.Fatalf("instance spacing %d != period %d", starts[j]-starts[j-1], r.Period)
		}
	}
}

func TestScheduleAccessor(t *testing.T) {
	p := vshape(t, 2)
	a := Assignment{1, 0, 0, 0}
	r, err := Solve(context.Background(), p, a, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Schedule()
	if s.Len() != 4 {
		t.Fatalf("schedule has %d items", s.Len())
	}
	if err := s.Validate(sched.ValidateOptions{Memory: sched.Unbounded}); err != nil {
		t.Fatal(err)
	}
}

// TestSolvedRepetendsAlwaysUnrollValid is the central property: any
// enumerated assignment that solves successfully yields an unrolled
// steady-state schedule passing full validation with its entry memory.
func TestSolvedRepetendsAlwaysUnrollValid(t *testing.T) {
	shapes := map[string]*sched.Placement{}
	all, err := placement.Shapes(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range all {
		if name == "x-shape" {
			continue // enumeration space too large for a unit test
		}
		shapes[name] = p
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"v-shape", "m-shape", "k-shape", "nn-shape"}
		p := shapes[names[rng.Intn(len(names))]]
		nr := 1 + rng.Intn(3)
		// Pick a random assignment from the enumeration.
		var candidates []Assignment
		if _, err := Enumerate(p, nr, func(a Assignment) bool {
			candidates = append(candidates, a)
			return len(candidates) < 200
		}); err != nil {
			return false
		}
		if len(candidates) == 0 {
			return true
		}
		a := candidates[rng.Intn(len(candidates))]
		mem := 4 + rng.Intn(8)
		r, err := Solve(context.Background(), p, a, SolveOptions{Memory: mem})
		if errors.Is(err, ErrInfeasible) {
			return true
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		s := r.Unroll(3)
		if err := s.Validate(sched.ValidateOptions{Memory: mem, InitialMem: EntryMemory(p, r.Assign, 0)}); err != nil {
			t.Logf("seed %d shape %s assign %v: %v", seed, p.Name, a, err)
			return false
		}
		// Period can never undercut the busiest device.
		if r.Period < p.LowerBound() {
			t.Logf("seed %d: period %d below lower bound %d", seed, r.Period, p.LowerBound())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSolvePeriodUpperBound: the bound is inclusive — an assignment that
// exactly ties it solves identically to an unbounded solve — and anything
// that provably cannot reach it returns ErrPruned.
func TestSolvePeriodUpperBound(t *testing.T) {
	p := vshape(t, 4)
	a := Assignment{3, 2, 1, 0, 0, 0, 0, 0}
	free, err := Solve(context.Background(), p, a, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tied, err := Solve(context.Background(), p, a, SolveOptions{PeriodUpperBound: free.Period})
	if err != nil {
		t.Fatalf("bound == period must not prune: %v", err)
	}
	if tied.Period != free.Period {
		t.Fatalf("tied solve period %d != %d", tied.Period, free.Period)
	}
	for i := range free.Starts {
		if tied.Starts[i] != free.Starts[i] {
			t.Fatalf("bounded solve changed starts: %v vs %v", tied.Starts, free.Starts)
		}
	}
	_, err = Solve(context.Background(), p, a, SolveOptions{PeriodUpperBound: free.Period - 1})
	if !errors.Is(err, ErrPruned) {
		t.Fatalf("bound below the optimum should prune, got %v", err)
	}
	if errors.Is(err, ErrInfeasible) {
		t.Fatal("pruned must not read as infeasible")
	}
}

// TestSolvePrunesBeforeInstanceSolve: a sequential (all-equal) assignment
// keeps every dependency intra-instance, so the order-independent
// relaxation alone proves its period is the whole chain — way above a
// pipeline incumbent — and the prune must not pay an instance solve.
func TestSolvePrunesBeforeInstanceSolve(t *testing.T) {
	p := vshape(t, 4)
	seq := Assignment{0, 0, 0, 0, 0, 0, 0, 0}
	free, err := Solve(context.Background(), p, seq, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if free.Period <= 3 {
		t.Fatalf("sequential period %d unexpectedly small", free.Period)
	}
	// A node budget of 1 would degrade any attempted instance solve; the
	// relaxation prune must fire before the solver ever runs.
	_, err = Solve(context.Background(), p, seq, SolveOptions{PeriodUpperBound: 3, SolverNodes: 1})
	if !errors.Is(err, ErrPruned) {
		t.Fatalf("want ErrPruned from the relaxation, got %v", err)
	}
	if errors.Is(err, ErrTruncated) {
		t.Fatal("relaxation prune must not touch the budgeted solver")
	}
	// The message is only built on demand, and still names rule and bound.
	if msg := err.Error(); !strings.Contains(msg, ErrPruned.Error()) || !strings.Contains(msg, "lower bound > 3") {
		t.Fatalf("prune message %q", msg)
	}
}

// TestSolveTruncatedFlag: exhausting the per-solve node budget degrades the
// instance solve to its first-descent incumbent and must be reported.
func TestSolveTruncatedFlag(t *testing.T) {
	p := vshape(t, 4)
	a := Assignment{3, 2, 1, 0, 0, 0, 0, 0}
	r, err := Solve(context.Background(), p, a, SolveOptions{SolverNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated {
		t.Fatal("node budget 1 must mark the repetend as truncated")
	}
	full, err := Solve(context.Background(), p, a, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatal("unbudgeted solve reported truncation")
	}
}

// TestAssignmentCompare pins the canonical tie-break order.
func TestAssignmentCompare(t *testing.T) {
	cases := []struct {
		a, b Assignment
		want int
	}{
		{Assignment{0, 1}, Assignment{0, 1}, 0},
		{Assignment{0, 1}, Assignment{0, 2}, -1},
		{Assignment{1, 0}, Assignment{0, 9}, 1},
		{Assignment{0}, Assignment{0, 0}, -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Fatalf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Fatalf("Compare(%v,%v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

// TestSolvePoolMatchesDefault: the instance a recycled searcher last solved —
// here another placement's — must not change any output, only the allocation
// behavior.
func TestSolvePoolMatchesDefault(t *testing.T) {
	p, q := vshape(t, 4), vshape(t, 2)
	for nr := 1; nr <= 4; nr++ {
		_, err := Enumerate(p, nr, func(a Assignment) bool {
			var baseEff, pooledEff Effort
			base, err1 := Solve(context.Background(), p, a, SolveOptions{Memory: 4, Effort: &baseEff})
			if _, err := Solve(context.Background(), q, Assignment{1, 0, 0, 0}, SolveOptions{}); err != nil {
				t.Fatal(err)
			}
			pooled, err2 := Solve(context.Background(), p, a, SolveOptions{Memory: 4, Effort: &pooledEff})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("assign %v: err mismatch %v vs %v", a, err1, err2)
			}
			if err1 != nil {
				return true
			}
			if base.Period != pooled.Period ||
				baseEff.SolverNodes != pooledEff.SolverNodes || baseEff.SolverMemoHits != pooledEff.SolverMemoHits {
				t.Fatalf("assign %v: base=%+v %+v pooled=%+v %+v", a, base, baseEff, pooled, pooledEff)
			}
			for i := range base.Starts {
				if base.Starts[i] != pooled.Starts[i] {
					t.Fatalf("assign %v: starts differ at stage %d", a, i)
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolveReportsEffortOnEveryPath: SolveOptions.Effort receives the work of
// a call whether or not it returns a Repetend — the single probe of an
// assignment the relaxation discards, the probe and the check of one the order
// check discards, and the whole instance solve and local search of one that is
// pruned only afterwards.
func TestSolveReportsEffortOnEveryPath(t *testing.T) {
	ctx := context.Background()
	p := vshape(t, 4)
	var eff Effort
	if _, err := Solve(ctx, p, Assignment{3, 2, 1, 0, 0, 0, 0, 0}, SolveOptions{Effort: &eff}); err != nil {
		t.Fatal(err)
	}
	if eff.SolverNodes == 0 || eff.PeriodProbes == 0 {
		t.Fatalf("effort of a solved assignment %+v", eff)
	}
	own := eff

	// Discarded by the relaxation: one probe, no check, no solver.
	eff = Effort{}
	_, err := Solve(ctx, p, Assignment{0, 0, 0, 0, 0, 0, 0, 0}, SolveOptions{PeriodUpperBound: 3, Effort: &eff})
	if !errors.Is(err, ErrPruned) || eff.PeriodProbes != 1 || eff.SolverNodes != 0 || eff.OrderChecks != 0 {
		t.Fatalf("relaxation prune: err %v, effort %+v", err, eff)
	}

	// The K-shape on six devices has both kinds of survivor of the relaxation
	// at its lower bound: assignments no per-device order rescues, which the
	// order check discards before the solver runs, and — at N_R 4 — a few
	// that some order does rescue but the instance solve and local search
	// miss, which are pruned only after both ran. The fixture walks the
	// enumeration until it has seen one of each and fails if the placement
	// stops providing them.
	k6, err := placement.KShape(placement.Config{Devices: 6})
	if err != nil {
		t.Fatal(err)
	}
	var byCheck, afterSolve *Effort
	for nr := 1; nr <= 4 && (byCheck == nil || afterSolve == nil); nr++ {
		if _, err := Enumerate(k6, nr, func(a Assignment) bool {
			e := Effort{}
			_, err := Solve(ctx, k6, a, SolveOptions{PeriodUpperBound: k6.LowerBound(), Effort: &e})
			switch {
			case !errors.Is(err, ErrPruned):
			case e.OrderPruned == 1 && byCheck == nil:
				byCheck = &e
			case e.OrderChecks == 1 && e.OrderPruned == 0 && afterSolve == nil:
				afterSolve = &e
			}
			return byCheck == nil || afterSolve == nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if byCheck == nil || byCheck.OrderChecks != 1 || byCheck.PeriodProbes != 1 || byCheck.SolverNodes != 0 || byCheck.LocalSearchSwaps != 0 {
		t.Fatalf("no assignment pruned by the order check reported one probe, one check and no solve: %+v", byCheck)
	}
	if afterSolve == nil || afterSolve.SolverNodes == 0 || afterSolve.PeriodProbes < 2 || afterSolve.LocalSearchSwaps == 0 {
		t.Fatalf("no assignment pruned after its solve reported that solve and its local search: %+v", afterSolve)
	}
	eff = *afterSolve

	// Calls accumulate.
	before := eff
	if _, err := Solve(ctx, p, Assignment{3, 2, 1, 0, 0, 0, 0, 0}, SolveOptions{Effort: &eff}); err != nil {
		t.Fatal(err)
	}
	before.Add(own)
	if eff != before {
		t.Fatalf("accumulated effort %+v, want %+v", eff, before)
	}
}

// TestEffortAddCoversEveryField: Add is the one step of a counter's way from a
// Solve call to the /v1/search wire that is written out field by field
// (core.Stats embeds Effort). Every field gets a distinct value; adding that
// twice into a zero Effort must double each field, so a field Add forgets,
// assigns instead of adding, or takes from another field fails here.
func TestEffortAddCoversEveryField(t *testing.T) {
	var o, e Effort
	ov := reflect.ValueOf(&o).Elem()
	for i := 0; i < ov.NumField(); i++ {
		ov.Field(i).SetInt(int64(i + 1))
	}
	e.Add(o)
	e.Add(o)
	ev := reflect.ValueOf(e)
	for i := 0; i < ev.NumField(); i++ {
		if got, want := ev.Field(i).Int(), 2*int64(i+1); got != want {
			t.Errorf("Effort.%s after adding %d twice = %d, want %d", ev.Type().Field(i).Name, i+1, got, want)
		}
	}
}
