package repetend_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"tessel/internal/repetend"
)

// TestRelaxedPeriodIsSolvesFirstStage holds RelaxedPeriod to Solve on one in
// 25 leaves of the first three rounds of each catalog placement: against one
// less than the relaxation bound Solve prunes with one probe and no instance
// solve or order check, against the bound itself it gets past the relaxation,
// and no solve finds a smaller period. Under a memory cap of 1 the bound is
// math.MaxInt exactly where Solve calls the leaf infeasible before any probe.
func TestRelaxedPeriodIsSolvesFirstStage(t *testing.T) {
	leaves, infeasible := 0, 0
	for _, c := range repetend.Catalog {
		p := c.Placement(t)
		solve := func(a repetend.Assignment, memory, bound int) (*repetend.Repetend, repetend.Effort, error) {
			var eff repetend.Effort
			r, err := repetend.Solve(context.Background(), p, a, repetend.SolveOptions{Memory: memory, PeriodUpperBound: bound, Effort: &eff})
			return r, eff, err
		}
		for nr := 1; nr <= 3; nr++ {
			n := 0
			if _, err := repetend.Enumerate(p, nr, func(a repetend.Assignment) bool {
				if n++; n%25 != 1 {
					return true
				}
				leaves++
				var probes repetend.Effort
				r := repetend.RelaxedPeriod(p, a, c.Memory, &probes)
				if r == math.MaxInt {
					t.Fatalf("%s %v: relaxation bound +∞ under the catalog's memory", c.Name, a)
				}
				if r < p.LowerBound() || probes.PeriodProbes == 0 {
					t.Fatalf("%s %v: relaxation bound %d below the lower bound %d, or no probe (%+v)", c.Name, a, r, p.LowerBound(), probes)
				}
				if _, eff, err := solve(a, c.Memory, r-1); r > 1 && (!errors.Is(err, repetend.ErrPruned) || eff.SolverNodes != 0 || eff.OrderChecks != 0 || eff.PeriodProbes > 1) {
					t.Fatalf("%s %v: relaxation bound %d, yet Solve against %d: %v, effort %+v", c.Name, a, r, r-1, err, eff)
				}
				if _, eff, _ := solve(a, c.Memory, r); eff.PeriodProbes < 2 && eff.OrderChecks == 0 {
					t.Fatalf("%s %v: Solve against the relaxation bound %d stops at the relaxation: effort %+v", c.Name, a, r, eff)
				}
				if got, _, err := solve(a, c.Memory, 0); err == nil && got.Period < r {
					t.Fatalf("%s %v: period %d below the relaxation bound %d", c.Name, a, got.Period, r)
				}
				_, eff, err := solve(a, 1, 0)
				early := errors.Is(err, repetend.ErrInfeasible) && eff.PeriodProbes == 0 && eff.SolverNodes == 0
				if tight := repetend.RelaxedPeriod(p, a, 1, nil); (tight == math.MaxInt) != early {
					t.Fatalf("%s %v: relaxation bound %d under memory 1, yet Solve: %v, effort %+v", c.Name, a, tight, err, eff)
				} else if early {
					infeasible++
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d leaves, %d of them infeasible at entry under memory 1", leaves, infeasible)
	if infeasible == 0 || infeasible == leaves {
		t.Fatalf("%d of %d leaves infeasible at entry under memory 1; the test wants both kinds", infeasible, leaves)
	}
}
