package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"tessel/internal/faultpoint"
	"tessel/internal/sched"
)

// TestChaosSweepWorkerPanic injects a panic into a solve. The sweep fans
// solves out over solver goroutines, where an uncaught panic would kill the
// process; the job must carry it to the Search caller's goroutine as a
// re-raised panic, the round must wait out its other jobs without deadlock,
// and the package must stay fully usable — a fault-free Search afterwards
// returns the byte-identical schedule.
func TestChaosSweepWorkerPanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p := shape(t, "v-shape", 4)
	opts := Options{N: 8}
	baseline, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}

	var fired atomic.Bool
	faultpoint.Arm(faultpoint.SolverSolve, func() error {
		if fired.CompareAndSwap(false, true) {
			panic("injected sweep crash")
		}
		return nil
	})
	recovered := func() (r any) {
		defer func() { r = recover() }()
		_, _ = Search(context.Background(), p, opts)
		return nil
	}()
	if recovered == nil {
		t.Fatal("solver panic did not propagate to the Search caller")
	}
	if rv, ok := recovered.(string); !ok || !strings.Contains(rv, "injected sweep crash") {
		t.Fatalf("recovered value %v lost the fault", recovered)
	}

	// Fault passed: the same search must reproduce the baseline exactly.
	res, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatalf("post-fault search: %v", err)
	}
	if sched.FingerprintSchedule(res.Full) != sched.FingerprintSchedule(baseline.Full) {
		t.Fatal("post-fault schedule differs from fault-free baseline")
	}
	// Sweep-effort counters are timing-dependent once the early-exit flag is
	// raised (in-flight solves finish or are cancelled), so only the result
	// itself is compared, not the effort it took.
	if res.Makespan != baseline.Makespan || res.BubbleRate != baseline.BubbleRate {
		t.Fatalf("post-fault result drifted: makespan %d vs %d", res.Makespan, baseline.Makespan)
	}
}
