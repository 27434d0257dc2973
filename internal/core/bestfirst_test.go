package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tessel/internal/placement"
	"tessel/internal/repetend"
	"tessel/internal/sched"
)

// randomShape draws one random placement: one of the five paper shapes on
// 2–4 devices with random block times, as ordercheck_search_test.go's
// randomShape in internal/repetend draws them. Capped, it is always under a
// memory cap of 3 to 8, so that many of them run the unaimed pass; otherwise
// a third are inference placements and a third are capped, with the draws of
// that randomShape, so one seed gives the same placements in both packages.
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

// searchOutcome is what the differential compares: the repetend and the
// completed schedule, or the error.
func searchOutcome(p *sched.Placement, opts Options) (string, *Result) {
	res, err := Search(context.Background(), p, opts)
	if err != nil {
		return "error: " + err.Error(), nil
	}
	r := res.Repetend
	return fmt.Sprintf("period %d, N_R %d, assignment %v, schedule %s", r.Period, r.NR, r.Assign, sched.FingerprintSchedule(res.Full)), res
}

// TestBestFirstFallbackDifferential: the unaimed pass returns the same
// repetend — period, N_R, assignment — and the same completed schedule, byte
// for byte, whether it hands its leaves out best-first or in enumeration
// order, at Workers 1, 2 and 4: on the catalog's three fallback placements
// and on 120 seeded memory-capped random ones. A placement no search
// completes must fail the same way both times. Of the random placements, the
// ones whose first pass finds nothing are the ones the order can change; the
// test wants a fair number of them.
func TestBestFirstFallbackDifferential(t *testing.T) {
	type instance struct {
		name string
		p    *sched.Placement
		opts Options
	}
	var instances []instance
	for _, name := range []string{"x8m4", "v6m4", "nn4m8"} {
		p, opts := catalogPlacement(t, name)
		instances = append(instances, instance{name, p, opts})
	}
	rng := rand.New(rand.NewSource(33))
	for len(instances) < 3+120 {
		p, memory, err := randomShape(rng, true)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, instance{p.Name, p, Options{Memory: memory}})
	}
	t.Cleanup(func() { bestFirstOn = true })
	fallbacks := 0
	for _, in := range instances {
		for _, workers := range []int{1, 2, 4} {
			opts := in.opts
			opts.Workers = workers
			bestFirstOn = false
			want, ref := searchOutcome(in.p, opts)
			bestFirstOn = true
			got, res := searchOutcome(in.p, opts)
			if got != want {
				t.Fatalf("%s workers %d: best-first %s; in enumeration order %s", in.name, workers, got, want)
			}
			if workers == 1 && ref != nil && !res.Stats.EarlyExit {
				fallbacks++
			}
		}
	}
	t.Logf("%d placements, %d of them through the unaimed pass", len(instances), fallbacks)
	if fallbacks < 40 {
		t.Fatalf("only %d of %d placements reach the unaimed pass", fallbacks, len(instances))
	}
}

// TestBestFirstFallbackEffort pins the work of the unaimed pass on the
// catalog's two costliest fallback placements at Workers 1, where it does not
// depend on timing: the solver nodes of the whole search and the Solve calls
// that get past the relaxation — those whose relaxation bound
// (repetend.RelaxedPeriod) is within the bound they were solved against.
// Handed out in enumeration order, every leaf got a Solve call: x8m4 took
// 85,429 nodes, and 107 of its 288 calls got past the relaxation; v6m4 took
// 983 nodes, 247 of its 364 calls past the relaxation. Best-first, a leaf that
// cannot beat the best gets no call, and every call gets past. (v6m4's 92
// calls took 496 nodes while an instance-solve cache shared four of its
// solves between assignments of one lag-zero pattern.) It pins the local
// search's swaps too: without the lag-zero reach closure, which keeps it from
// trying to swap a dependency-ordered pair, x8m4 evaluates 1,714 swaps and
// v6m4 648, for the same schedules, each search about 9% slower.
func TestBestFirstFallbackEffort(t *testing.T) {
	for _, c := range []struct {
		name   string
		nodes  int64
		passed int
		swaps  int64
	}{{"x8m4", 54094, 47, 1507}, {"v6m4", 531, 92, 568}} {
		p, opts := catalogPlacement(t, c.name)
		opts.Workers = 1
		passed, calls := 0, 0
		sweepSolveHook = func(_ context.Context, a repetend.Assignment, bound int) {
			calls++
			if bound == 0 || repetend.RelaxedPeriod(p, a, opts.Memory, nil) <= bound {
				passed++
			}
		}
		res, err := Search(context.Background(), p, opts)
		sweepSolveHook = nil
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.SolverNodes != c.nodes || passed != c.passed || calls != passed {
			t.Errorf("%s: %d solver nodes and %d of %d Solve calls past the relaxation, want %d and all %d", c.name, st.SolverNodes, passed, calls, c.nodes, c.passed)
		}
		if st.LocalSearchSwaps != c.swaps {
			t.Errorf("%s: %d local search swaps, want %d", c.name, st.LocalSearchSwaps, c.swaps)
		}
	}
}
