package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"tessel/internal/placement"
	"tessel/internal/sched"
)

// slowPlacement returns a placement whose search with default budgets runs
// for more than a minute (the six-device nn-shape reaches its lower bound
// only deep in an assignment space of hundreds of thousands; the four-device
// one is down to about a second) — the point is to cancel it mid-sweep, never
// to finish it.
func slowPlacement(t *testing.T) *sched.Placement {
	t.Helper()
	p, err := placement.NNShape(placement.Config{Devices: 6})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSearchCancellation cancels a search mid-sweep and asserts it unwinds
// promptly — every in-flight solver worker stops at its next context poll —
// returning ctx's error.
func TestSearchCancellation(t *testing.T) {
	p := slowPlacement(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Search(ctx, p, Options{})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("search did not stop within 2s of cancellation")
	}
}

// TestSearchDeadline: a context deadline bounds the whole search the same
// way.
func TestSearchDeadline(t *testing.T) {
	p := slowPlacement(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Search(ctx, p, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("search overran its deadline by %s", elapsed)
	}
}

// TestSearchPreCancelled: an already-cancelled context returns immediately
// without touching the solver.
func TestSearchPreCancelled(t *testing.T) {
	p := slowPlacement(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, p, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, _, err := TimeOptimal(ctx, p, 2, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("TimeOptimal err = %v, want context.Canceled", err)
	}
}
