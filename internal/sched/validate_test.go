package sched_test

// Validate against ReferenceValidate, the per-device-list walk it replaced, on
// the schedules the search completes and on single mutations of them; and
// BenchmarkScheduleValidate, its cost on a sorted, a shuffled and a sparse
// schedule.

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"tessel/internal/core"
	"tessel/internal/placement"
	"tessel/internal/sched"
)

// catalog is the repository benchmark's 21 placements: shape, devices,
// inference, memory cap (0 = unbounded).
var catalog = []struct {
	name      string
	build     func(placement.Config) (*sched.Placement, error)
	devices   int
	inference bool
	memory    int
}{
	{"m4", placement.MShape, 4, false, 0}, {"k6", placement.KShape, 6, false, 0},
	{"k6m8", placement.KShape, 6, false, 8}, {"x8m4", placement.XShape, 8, false, 4},
	{"v6", placement.VShape, 6, false, 0}, {"v6m8", placement.VShape, 6, false, 8},
	{"x8i", placement.XShape, 8, true, 0}, {"m8i", placement.MShape, 8, true, 0},
	{"nn6i", placement.NNShape, 6, true, 0}, {"v4", placement.VShape, 4, false, 0},
	{"x4", placement.XShape, 4, false, 0}, {"k4", placement.KShape, 4, false, 0},
	{"nn4m8", placement.NNShape, 4, false, 8}, {"v4i", placement.VShape, 4, true, 0},
	{"x4i", placement.XShape, 4, true, 0}, {"m4i", placement.MShape, 4, true, 0},
	{"k4i", placement.KShape, 4, true, 0}, {"nn4i", placement.NNShape, 4, true, 0},
	{"x4m8", placement.XShape, 4, false, 8}, {"v6m4", placement.VShape, 6, false, 4},
	{"k6i", placement.KShape, 6, true, 0},
}

// completed returns the catalog placement's search, completed at each n.
func completed(t testing.TB, i int, ns ...int) []*sched.Schedule {
	t.Helper()
	c := catalog[i]
	p, err := c.build(placement.Config{Devices: c.devices})
	if err != nil {
		t.Fatal(err)
	}
	if c.inference {
		p = placement.Inference(p)
	}
	opts := core.Options{N: ns[0], Memory: c.memory}
	res, err := core.Search(context.Background(), p, opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var out []*sched.Schedule
	for _, n := range ns {
		ext, err := core.Extend(context.Background(), res, n, opts)
		if err != nil {
			t.Fatalf("%s at N = %d: %v", c.name, n, err)
		}
		out = append(out, ext.Full)
	}
	return out
}

// mutation is one edit of a completed schedule.
type mutation struct {
	name string
	s    *sched.Schedule
}

// mutations returns s and single edits of it: a start one earlier, a block
// scheduled a second time after the makespan, a block dropped, a micro of
// 2^40, every micro shifted negative and one set to −1.
// Each item edit is made at a few positions, the duplicate at one block of
// every stage.
func mutations(s *sched.Schedule, rng *rand.Rand) []mutation {
	out := []mutation{{"as completed", s}}
	edit := func(name string, f func(*sched.Schedule)) {
		m := s.Clone()
		f(m)
		out = append(out, mutation{name, m})
	}
	var at []int
	for x := 0; x < 6; x++ {
		at = append(at, rng.Intn(s.Len()))
	}
	for _, i := range append(at, 0, s.Len()-1) {
		edit("start −1", func(m *sched.Schedule) { m.Items[i].Start-- })
		edit("dropped", func(m *sched.Schedule) { m.Items = slices.Delete(m.Items, i, i+1) })
		edit("micro 2^40", func(m *sched.Schedule) { m.Items[i].Micro = 1 << 40 })
		edit("micro −1", func(m *sched.Schedule) { m.Items[i].Micro = -1 })
	}
	for k := range s.P.K() {
		if i := slices.IndexFunc(s.Items, func(it sched.Item) bool { return it.Stage == k }); i >= 0 {
			edit("duplicated", func(m *sched.Schedule) { m.Add(k, m.Items[i].Micro, s.Makespan()) })
			edit("duplicated in place", func(m *sched.Schedule) { m.Items = slices.Insert(m.Items, i, m.Items[i]) })
		}
	}
	edit("micros shifted negative", func(m *sched.Schedule) {
		for i := range m.Items {
			m.Items[i].Micro -= s.Len()
		}
	})
	return out
}

// TestValidateMatchesReference: on every catalog shape's schedule at N = 1, 8
// and 64, and on each mutation of it, Validate and ReferenceValidate agree on
// whether the schedule is valid — with no memory cap, and at its peak memory
// and one below — and Validate leaves the items in their order.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	invalid := map[string]int{}
	for i := range catalog {
		for _, s := range completed(t, i, 8, 1, 64) {
			peak := slices.Max(s.PeakMemory(nil))
			for _, m := range mutations(s, rng) {
				for _, memory := range []int{sched.Unbounded, peak, peak - 1} {
					before := slices.Clone(m.s.Items)
					got := m.s.Validate(sched.ValidateOptions{Memory: memory})
					want := sched.ReferenceValidate(m.s, sched.ValidateOptions{Memory: memory})
					if (got == nil) != (want == nil) {
						t.Fatalf("%s N = %d, %s, memory %d: Validate says %v, the reference %v", catalog[i].name, s.Len()/s.P.K(), m.name, memory, got, want)
					}
					if !slices.Equal(m.s.Items, before) {
						t.Fatalf("%s N = %d, %s: Validate reordered the items", catalog[i].name, s.Len()/s.P.K(), m.name)
					}
					if got != nil && memory == sched.Unbounded {
						invalid[m.name]++
					}
				}
			}
		}
	}
	// The edits that break a constraint must break one with no memory cap, or
	// the comparison above shows nothing for them.
	for _, name := range []string{"start −1", "duplicated", "duplicated in place"} {
		if invalid[name] == 0 {
			t.Errorf("no %q schedule is invalid", name)
		}
	}
}

// TestValidateSteadyStateAllocs bounds what Validate allocates on a schedule
// as completion hands it over: the m4 schedule at N = 256, sorted, after one
// warm-up call. Its block index comes from a pool, so what is left is the
// per-device state: 1 alloc and 96 B on four devices, where a fresh index
// made it 2 and 32,864 B. The bounds are those plus 10%. From the warm-up on
// the collector is off, since a collection may empty the pool, and one P
// runs Go code, since an array put back on one P is not found by a Get on
// another.
func TestValidateSteadyStateAllocs(t *testing.T) {
	s := completed(t, 0, 256)[0]
	validate := func() {
		if err := s.Validate(sched.ValidateOptions{Memory: sched.Unbounded}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	validate() // after the resize, which empties the pool
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		validate()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Validate m4 N=256 sorted: %.2f allocs/op, %.0f B/op", allocs, bytesPerOp)
	if raceDetector {
		return // the bounds below are the production binary's
	}
	if max := 1 * 1.1; allocs > max {
		t.Errorf("%.2f allocs/op, want ≤ %.1f", allocs, max)
	}
	if max := 96 * 1.1; bytesPerOp > max {
		t.Errorf("%.0f B/op, want ≤ %.0f", bytesPerOp, max)
	}
}

// BenchmarkScheduleValidate times Validate on the m4 schedule at N = 256 as
// completion hands it over (in item order), on a shuffled copy (validated on
// a sorted clone) and with one micro-batch index of 2^40, as only a decoded
// or hand-made schedule holds.
func BenchmarkScheduleValidate(b *testing.B) {
	sorted := completed(b, 0, 256)[0]
	shuffled := sorted.Clone()
	rand.New(rand.NewSource(40)).Shuffle(shuffled.Len(), func(i, j int) {
		shuffled.Items[i], shuffled.Items[j] = shuffled.Items[j], shuffled.Items[i]
	})
	sparse := sorted.Clone()
	sparse.Items[sparse.Len()-1].Micro = 1 << 40
	for _, c := range []struct {
		name string
		s    *sched.Schedule
	}{{"sorted", sorted}, {"unsorted", shuffled}, {"sparse", sparse}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.s.Validate(sched.ValidateOptions{Memory: sched.Unbounded}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
