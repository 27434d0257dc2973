package solver

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"tessel/internal/faultpoint"
)

// TestChaosParallelWorkerPanic injects a panic into one parallel root-split
// job: the panic must be contained on the worker goroutine and re-raised on
// the Solve caller's goroutine (not crash the process from a detached
// worker), and because the panicking worker's searcher is dropped rather
// than recycled, a subsequent fault-free solve on the same pool must return
// a result identical to a never-faulted run.
func TestChaosParallelWorkerPanic(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	tasks := searchTasks(t, 3, 4000)
	clean, err := Solve(context.Background(), tasks, Options{Workers: 4})
	if err != nil || !clean.Optimal {
		t.Fatalf("baseline solve: res=%+v err=%v", clean, err)
	}

	var fired atomic.Bool
	faultpoint.Arm(faultpoint.SolverParallelJob, func() error {
		if fired.CompareAndSwap(false, true) {
			return errors.New("injected worker fault")
		}
		return nil
	})

	recovered := func() (r any) {
		defer func() { r = recover() }()
		_, _ = Solve(context.Background(), tasks, Options{Workers: 4})
		return nil
	}()
	if recovered == nil {
		t.Fatal("worker panic did not propagate to the Solve caller")
	}
	rerr, ok := recovered.(error)
	if !ok || !strings.Contains(rerr.Error(), "injected worker fault") {
		t.Fatalf("recovered value %v lost the fault", recovered)
	}

	// The point is passive now (it fired once); the pool must be fully
	// usable and deterministic after dropping the corrupted searcher.
	res, err := Solve(context.Background(), tasks, Options{Workers: 4})
	if err != nil {
		t.Fatalf("post-fault solve: %v", err)
	}
	res.Elapsed = clean.Elapsed
	if !reflect.DeepEqual(res, clean) {
		t.Fatalf("post-fault solve differs from baseline:\n%+v\nvs\n%+v", res, clean)
	}
}

// TestChaosSharedTierPanicAfterPublish injects a panic into a job that runs
// *after* earlier jobs have published entries to the shared memo tier (the
// fault point fires at every job start; letting the first batch plus part of
// the second pass guarantees batch-0 promotions happened). The panic must
// still surface on the Solve caller's goroutine, and — the torn-epoch check
// — follower solves must be byte-identical to a never-faulted run: the tier
// dies with the solve (it is per-solve state, mutated only between batches),
// so no partially promoted epoch can leak into later solves or workers.
func TestChaosSharedTierPanicAfterPublish(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	tasks := searchTasks(t, 3, 4000)
	clean, err := Solve(context.Background(), tasks, Options{Workers: 2})
	if err != nil || !clean.Optimal {
		t.Fatalf("baseline solve: res=%+v err=%v", clean, err)
	}
	if clean.SharedMemoHits == 0 {
		t.Fatalf("baseline solve never hit the shared tier; the fault would not cover publication: %+v", clean)
	}

	// Fire on the 6th job start: batches ramp 4, 8, …, so jobs 0–3 have
	// completed, promoted into the tier, and job 5 (batch 1, running after
	// the promotion barrier) is past a tier publication when it panics.
	var calls atomic.Int64
	faultpoint.Arm(faultpoint.SolverParallelJob, func() error {
		if calls.Add(1) == 6 {
			return errors.New("injected post-publish fault")
		}
		return nil
	})

	recovered := func() (r any) {
		defer func() { r = recover() }()
		_, _ = Solve(context.Background(), tasks, Options{Workers: 2})
		return nil
	}()
	if recovered == nil {
		t.Fatal("post-publish panic did not propagate to the Solve caller")
	}
	rerr, ok := recovered.(error)
	if !ok || !strings.Contains(rerr.Error(), "injected post-publish fault") {
		t.Fatalf("recovered value %v lost the fault", recovered)
	}
	faultpoint.Disarm(faultpoint.SolverParallelJob)

	// Follower solves across worker counts: byte-identical to the baseline,
	// including the shared-tier counters — a torn epoch (a tier surviving
	// the fault with a partial batch promoted) would skew SharedMemoHits.
	for _, w := range []int{1, 2, 4} {
		res, err := Solve(context.Background(), tasks, Options{Workers: w})
		if err != nil {
			t.Fatalf("post-fault workers=%d: %v", w, err)
		}
		res.Elapsed = clean.Elapsed
		if !reflect.DeepEqual(res, clean) {
			t.Fatalf("post-fault workers=%d differs from baseline:\n%+v\nvs\n%+v", w, res, clean)
		}
	}
}

// TestChaosSolveFaultReturnsError: an armed error (not panic) at the solve
// entry surfaces as an ordinary Solve error, proving the injection point
// sits on the regular error path and costs nothing when disarmed.
func TestChaosSolveFaultReturnsError(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	tasks := vshapeTasks(t, 2)
	injected := errors.New("injected solve fault")
	faultpoint.Arm(faultpoint.SolverSolve, func() error { return injected })
	if _, err := Solve(context.Background(), tasks, Options{}); !errors.Is(err, injected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	faultpoint.Disarm(faultpoint.SolverSolve)
	if res, err := Solve(context.Background(), tasks, Options{}); err != nil || !res.Optimal {
		t.Fatalf("disarmed solve: res=%+v err=%v", res, err)
	}
}
