package solver

import (
	"context"
	"errors"
	"testing"

	"tessel/internal/faultpoint"
)

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
