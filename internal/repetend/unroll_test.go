package repetend

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tessel/internal/sched"
)

// unrollSorted is the Unroll that emitted its items instance by instance and
// sorted them, kept as the reference for the window walk that replaced it.
func unrollSorted(r *Repetend, k int) *sched.Schedule {
	s := &sched.Schedule{P: r.P, Items: make([]sched.Item, 0, max(k, 0)*len(r.Starts))}
	for j := 0; j < k; j++ {
		for i, st := range r.Starts {
			s.Add(i, r.Assign[i]+j, st+j*r.Period)
		}
	}
	s.Sort()
	return s
}

// TestUnrollMatchesSortedReference holds Unroll to the sort-based reference
// on random repetends: starts spread over several periods (negative ones too),
// over a few shared residues, and across a gap of millions of periods, with
// k ∈ {0, 1, NR+1, 256}. AppendUnroll with a nonzero offset must append the
// reference's items, every start moved by the offset, after dst's items.
// Unroll knows nothing of the placement but its stage count, so the
// repetends need not be feasible.
func TestUnrollMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	p := &sched.Placement{Name: "any"}
	for trial := 0; trial < 3000; trial++ {
		K, period, nr := 1+rng.Intn(12), 1+rng.Intn(16), 1+rng.Intn(4)
		r := &Repetend{P: p, NR: nr, Period: period, Assign: make(Assignment, K), Starts: make([]int, K)}
		residues := []int{rng.Intn(period), rng.Intn(period)}
		for i := range r.Starts {
			r.Assign[i] = rng.Intn(nr)
			switch trial % 3 {
			case 0: // anywhere in a few periods, some before 0
				r.Starts[i] = rng.Intn(4*period) - period
			case 1: // two residues, so that offsets tie and the stage decides
				r.Starts[i] = rng.Intn(5)*period + residues[rng.Intn(2)]
			default: // two clusters millions of periods apart
				r.Starts[i] = rng.Intn(2*period) + rng.Intn(2)*period*(1<<22)
			}
		}
		for _, k := range []int{0, 1, nr + 1, 256} {
			if got, want := r.Unroll(k), unrollSorted(r, k); !slices.Equal(got.Items, want.Items) {
				t.Fatalf("trial %d, period %d, starts %v, k %d:\n got %v\nwant %v", trial, period, r.Starts, k, got.Items, want.Items)
			}
			dst, at := make([]sched.Item, 1+rng.Intn(3)), rng.Intn(64)-32
			for x := range dst {
				dst[x].Micro = -1 - x
			}
			want := slices.Clone(dst)
			for _, it := range unrollSorted(r, k).Items {
				it.Start += at
				want = append(want, it)
			}
			if got := r.AppendUnroll(dst, k, at); !slices.Equal(got, want) {
				t.Fatalf("trial %d, period %d, starts %v, k %d, at %d after %d items:\n got %v\nwant %v", trial, period, r.Starts, k, at, len(dst), got, want)
			}
		}
	}
}

// TestUnrollCostFollowsItems: two stages 10^12 periods apart unroll in time
// proportional to the items — the walk jumps the windows between them — starts
// at the ends of int end the walk too, and a period below 1 gets the
// instances unsorted rather than a division by zero.
func TestUnrollCostFollowsItems(t *testing.T) {
	p := &sched.Placement{Name: "any"}
	r := &Repetend{P: p, NR: 1, Period: 3, Assign: Assignment{0, 0}, Starts: []int{0, 3e12}}
	if got, want := r.Unroll(4), unrollSorted(r, 4); !slices.Equal(got.Items, want.Items) {
		t.Fatalf("got %v, want %v", got.Items, want.Items)
	}
	// Starts at the ends of int overflow the windows; the walk still ends.
	r.Starts = []int{math.MinInt, math.MaxInt}
	if s := r.Unroll(4); s.Len() > 8 {
		t.Fatalf("extreme starts: %d items, want at most 8", s.Len())
	}
	for _, period := range []int{0, -2} {
		r.Period = period
		if s := r.Unroll(3); s.Len() != 6 {
			t.Fatalf("period %d: %d items, want 6", period, s.Len())
		}
	}
}
