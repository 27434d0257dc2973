package core

import (
	"context"
	"slices"
	"testing"

	"tessel/internal/placement"
	"tessel/internal/sched"
)

// TestExtendMatchesFreshSearch is the property the serving engine's cache
// depends on (§III-C schedule generalization): extending a searched
// repetend to N micro-batches must produce the same makespan as running a
// fresh search asked for N directly. Workers=1 keeps both searches
// deterministic so the comparison is exact.
func TestExtendMatchesFreshSearch(t *testing.T) {
	ctx := context.Background()
	builders := map[string]func(placement.Config) (*sched.Placement, error){
		"v-shape": placement.VShape,
		"m-shape": placement.MShape,
		"k-shape": placement.KShape,
	}
	for name, build := range builders {
		p, err := build(placement.Config{Devices: 4})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Workers: 1}
		base, err := Search(ctx, p, opts)
		if err != nil {
			t.Fatalf("%s: base search: %v", name, err)
		}
		for _, n := range []int{5, 9, 14} {
			freshOpts := opts
			freshOpts.N = n
			fresh, err := Search(ctx, p, freshOpts)
			if err != nil {
				t.Fatalf("%s N=%d: fresh search: %v", name, n, err)
			}
			ext, err := Extend(ctx, base, n, opts)
			if err != nil {
				t.Fatalf("%s N=%d: extend: %v", name, n, err)
			}
			if ext.Makespan != fresh.Makespan {
				t.Errorf("%s N=%d: extended makespan %d != fresh %d", name, n, ext.Makespan, fresh.Makespan)
			}
			if ext.Full.Len() != n*p.K() {
				t.Errorf("%s N=%d: extended schedule has %d blocks, want %d", name, n, ext.Full.Len(), n*p.K())
			}
			if err := ext.Full.Validate(sched.ValidateOptions{Memory: sched.Unbounded}); err != nil {
				t.Errorf("%s N=%d: extended schedule invalid: %v", name, n, err)
			}
		}
	}
}

// TestExtendTranslatesByOnePeriod is §III-C's generalization stated as a
// translation: from n = N_R on, the schedule for n+1 micro-batches is the
// one for n with a repetend instance more, so its makespan is one period
// longer, and every item from micro max(Assign) up — the later repetend
// instances and the cooldown — reappears one period later on the next
// micro-batch. The warmup below that micro does not depend on n. It holds
// for each catalog placement at Workers 1, for every n from N_R to
// 4·N_R + 64 and for n = 256 and 1024, and every schedule validates.
func TestExtendTranslatesByOnePeriod(t *testing.T) {
	ctx := context.Background()
	for _, c := range catalogShapes {
		t.Run(c.name, func(t *testing.T) {
			p, opts := catalogPlacement(t, c.name)
			opts.Workers = 1
			res, err := Search(ctx, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			r, k := res.Repetend, p.K()
			tail := slices.Max(r.Assign)
			valid := sched.ValidateOptions{Memory: opts.Resolve(p).Memory}
			extend := func(n int) *Result {
				t.Helper()
				ext, err := Extend(ctx, res, n, opts)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if err := ext.Full.Validate(valid); err != nil {
					t.Fatalf("n=%d: invalid schedule: %v", n, err)
				}
				return ext
			}
			ns := []int{256, 1024}
			for n := r.NR; n <= 4*r.NR+64; n++ {
				ns = append(ns, n)
			}
			for _, n := range ns {
				cur, next := extend(n), extend(n+1)
				if next.Makespan != cur.Makespan+r.Period {
					t.Fatalf("n=%d: makespan %d at n+1, want %d + period %d", n, next.Makespan, cur.Makespan, r.Period)
				}
				starts := make([]int, (n+1)*k)
				for _, it := range next.Full.Items {
					starts[it.Micro*k+it.Stage] = it.Start
				}
				for _, it := range cur.Full.Items {
					if it.Micro < tail {
						continue
					}
					if got, want := starts[(it.Micro+1)*k+it.Stage], it.Start+r.Period; got != want {
						t.Fatalf("n=%d: stage %d micro %d starts at %d; at n+1 micro %d starts at %d, want %d",
							n, it.Stage, it.Micro, it.Start, it.Micro+1, got, want)
					}
				}
			}
		})
	}
}
