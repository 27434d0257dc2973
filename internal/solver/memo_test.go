package solver

import (
	"context"
	"math/rand"
	"testing"

	"tessel/internal/placement"
)

// packVec packs int32 components into the memo's two-per-word layout and
// derives their sum, as the searcher's fillStateVector does.
func packVec(vals []int32) (vec []uint64, sum int64) {
	for i, v := range vals {
		sum += int64(v)
		if i&1 == 0 {
			vec = append(vec, uint64(uint32(v)))
		} else {
			vec[len(vec)-1] |= uint64(uint32(v)) << 32
		}
	}
	return vec, sum
}

func probeVals(m *memoTable, mask uint64, vals []int32) bool {
	vec, sum := packVec(vals)
	return m.probe([]uint64{mask}, vec, sum)
}

func insertVals(m *memoTable, mask uint64, vals []int32) {
	vec, sum := packVec(vals)
	if !m.probe([]uint64{mask}, vec, sum) {
		m.insert([]uint64{mask}, vec, sum)
	}
}

func TestMemoInsertAndDominate(t *testing.T) {
	var m memoTable
	m.reset(1)
	if probeVals(&m, 1, []int32{3, 5}) {
		t.Fatal("empty table reported a hit")
	}
	insertVals(&m, 1, []int32{3, 5})
	// Identical and componentwise-worse states are dominated.
	if !probeVals(&m, 1, []int32{3, 5}) {
		t.Fatal("identical state not dominated")
	}
	if !probeVals(&m, 1, []int32{4, 5}) {
		t.Fatal("worse state not dominated")
	}
	// Better or incomparable states are not.
	if probeVals(&m, 1, []int32{2, 5}) {
		t.Fatal("better state reported dominated")
	}
	if probeVals(&m, 1, []int32{2, 9}) {
		t.Fatal("incomparable state reported dominated")
	}
	// A different mask shares nothing.
	if probeVals(&m, 2, []int32{3, 5}) {
		t.Fatal("hit across distinct masks")
	}
}

func TestMemoEviction(t *testing.T) {
	var m memoTable
	m.reset(1)
	insertVals(&m, 7, []int32{4, 6}) // will be evicted
	insertVals(&m, 7, []int32{9, 1}) // incomparable, survives
	if !probeVals(&m, 7, []int32{5, 6}) {
		t.Fatal("state dominated by {4,6} not pruned")
	}
	// {2,3} dominates {4,6} but not {9,1}: inserting it must evict {4,6}.
	insertVals(&m, 7, []int32{2, 3})
	if got := m.size; got != 3 {
		t.Fatalf("size = %d, want 3 inserts", got)
	}
	// Chain now holds {9,1} and {2,3}: a state covered only by the evicted
	// {4,6}-dominates-it region but not by {2,3} must... still be pruned,
	// because {2,3} dominates everything {4,6} did. Use a state dominated
	// by neither survivor to check the eviction really unlinked {4,6}:
	// {4,2} — not ≥ {2,3} (2 < 3), not ≥ {9,1} (4 < 9), ≥ nothing stored.
	if probeVals(&m, 7, []int32{4, 2}) {
		t.Fatal("phantom domination after eviction")
	}
	if !probeVals(&m, 7, []int32{9, 3}) {
		t.Fatal("state dominated by {2,3} and {9,1} not pruned")
	}
	// The evicted entry was recycled through the free list by the very
	// insert that displaced it: three inserts, one eviction, two entry
	// structs ever allocated.
	if m.freeEnt >= 0 {
		t.Fatal("recycled entry left on the free list")
	}
	if len(m.entries) != 2 {
		t.Fatalf("entry arena grew to %d, want 2 (eviction recycled)", len(m.entries))
	}
}

func TestMemoGenerationReset(t *testing.T) {
	var m memoTable
	m.reset(1)
	for mask := uint64(1); mask <= 64; mask++ {
		insertVals(&m, mask, []int32{int32(mask), int32(64 - mask)})
	}
	for mask := uint64(1); mask <= 64; mask++ {
		if !probeVals(&m, mask, []int32{int32(mask), int32(64 - mask)}) {
			t.Fatalf("mask %d lost before reset", mask)
		}
	}
	slotsBefore := len(m.slots)
	m.reset(1)
	if len(m.slots) != slotsBefore {
		t.Fatal("reset reallocated the slot array")
	}
	if m.size != 0 || m.live != 0 || len(m.vecs) != 0 || len(m.entries) != 0 {
		t.Fatalf("reset left state behind: size=%d live=%d vecs=%d entries=%d",
			m.size, m.live, len(m.vecs), len(m.entries))
	}
	for mask := uint64(1); mask <= 64; mask++ {
		if probeVals(&m, mask, []int32{int32(mask), int32(64 - mask)}) {
			t.Fatalf("mask %d survived a generation reset", mask)
		}
	}
}

func TestMemoGrowth(t *testing.T) {
	var m memoTable
	m.reset(1)
	// Push well past the initial slot count to force rehashing growth.
	n := uint64(4 * memoMinSlots)
	for mask := uint64(0); mask < n; mask++ {
		insertVals(&m, mask, []int32{int32(mask % 97), int32(mask % 89)})
	}
	if len(m.slots) <= memoMinSlots {
		t.Fatalf("table did not grow: %d slots for %d keys", len(m.slots), n)
	}
	for mask := uint64(0); mask < n; mask++ {
		if !probeVals(&m, mask, []int32{int32(mask % 97), int32(mask % 89)}) {
			t.Fatalf("mask %d lost across growth", mask)
		}
	}
}

func TestMemoCapStopsInserts(t *testing.T) {
	var m memoTable
	m.reset(1)
	for mask := uint64(0); mask < memoCap; mask++ {
		insertVals(&m, mask, []int32{1})
	}
	if m.size != memoCap {
		t.Fatalf("size = %d, want %d", m.size, memoCap)
	}
	insertVals(&m, uint64(memoCap)+7, []int32{1})
	if probeVals(&m, uint64(memoCap)+7, []int32{1}) {
		t.Fatal("insert beyond memoCap was recorded")
	}
	// Existing entries still answer probes.
	if !probeVals(&m, 3, []int32{2}) {
		t.Fatal("stored entry lost after hitting the cap")
	}
}

// TestMemoMatchesReference drives the arena-backed table and a naive
// map-of-slices Pareto store with the same random probe/insert stream and
// requires identical hit decisions — the regression net for the sum filter
// and the chain splicing.
func TestMemoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var m memoTable
	m.reset(1)
	ref := map[uint64][][]int32{}
	refDominates := func(a, b []int32) bool {
		for i := range a {
			if a[i] > b[i] {
				return false
			}
		}
		return true
	}
	for step := 0; step < 20000; step++ {
		mask := uint64(rng.Intn(37))
		vals := make([]int32, 6)
		for i := range vals {
			vals[i] = int32(rng.Intn(40))
		}
		want := false
		for _, e := range ref[mask] {
			if refDominates(e, vals) {
				want = true
				break
			}
		}
		vec, sum := packVec(vals)
		got := m.probe([]uint64{mask}, vec, sum)
		if got != want {
			t.Fatalf("step %d mask %d vals %v: table=%v reference=%v", step, mask, vals, got, want)
		}
		if !got {
			m.insert([]uint64{mask}, vec, sum)
			kept := ref[mask][:0]
			for _, e := range ref[mask] {
				if !refDominates(vals, e) {
					kept = append(kept, e)
				}
			}
			ref[mask] = append(kept, append([]int32(nil), vals...))
		}
	}
}

// TestMemoMultiWordMasks exercises the >64-task key path (mask arena).
func TestMemoMultiWordMasks(t *testing.T) {
	var m memoTable
	m.reset(2)
	maskA := []uint64{1, 2}
	maskB := []uint64{1, 3}
	vec, sum := packVec([]int32{5, 5})
	if m.probe(maskA, vec, sum) {
		t.Fatal("empty table hit")
	}
	m.insert(maskA, vec, sum)
	if !m.probe(maskA, vec, sum) {
		t.Fatal("maskA entry lost")
	}
	if m.probe(maskB, vec, sum) {
		t.Fatal("hit across distinct two-word masks")
	}
}

// TestSolveSteadyStateAllocs is the allocation regression test of the
// solver core: on a reused searcher a full solve performs (amortized) ~one
// allocation — the caller-owned Result.Starts copy — across thousands of
// search nodes, i.e. zero steady-state allocations per node. The M-shape legs
// are barrier instances, so they hold pathBound's barrier term to the same;
// under Memory 5 the first descent deadlocks part-way, so the last leg holds
// its unwind back to the root, and a search that starts without an
// incumbent, to the same.
func TestSolveSteadyStateAllocs(t *testing.T) {
	mshape, err := placement.MShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name  string
		tasks []Task
		opts  Options
	}{
		{"x-shape n=3", searchTasks(t, 3, 4000), Options{}},
		{"m-shape n=3", needsSearch(t, mshape, 3, 1000), Options{}},
		{"m-shape n=3 memory 5", needsSearch(t, mshape, 3, 1000), Options{Memory: 5}},
	} {
		s := &searcher{}
		warm, err := s.solve(context.Background(), leg.tasks, leg.opts)
		if err != nil || !warm.Feasible {
			t.Fatalf("%s: warmup solve: %+v err=%v", leg.name, warm, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			res, err := s.solve(context.Background(), leg.tasks, leg.opts)
			if err != nil || !res.Feasible {
				t.Fatalf("%s: solve: %+v err=%v", leg.name, res, err)
			}
		})
		// One alloc for Result.Starts; leave headroom for incidental runtime
		// noise but fail hard on any per-node allocation (≥ hundreds).
		if allocs > 4 {
			t.Fatalf("%s: steady-state solve allocates %.1f times (want ≤ 4, ~%.4f/node)",
				leg.name, allocs, allocs/float64(warm.Nodes))
		}
	}
}

// TestPoolSolveMatchesSolve interleaves solves of different instances on the
// package's recycled searchers and checks results are identical to solves on
// fresh ones — the searcher-reuse soundness property the sweep relies on.
func TestPoolSolveMatchesSolve(t *testing.T) {
	shapes := [][]Task{}
	for _, cfg := range []struct{ d, fwd, bwd, n int }{
		{2, 1, 2, 2}, {3, 2, 3, 2}, {4, 1, 2, 3},
	} {
		p := vshape(cfg.d, cfg.fwd, cfg.bwd)
		tasks, err := BuildTasks(p, AllBlocks(p, cfg.n), nil)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, tasks)
	}
	for round := 0; round < 3; round++ {
		for i, tasks := range shapes {
			fresh, err1 := (&searcher{}).solve(context.Background(), tasks, Options{Memory: 3})
			pooled, err2 := Solve(context.Background(), tasks, Options{Memory: 3})
			if err1 != nil || err2 != nil {
				t.Fatalf("round %d shape %d: err1=%v err2=%v", round, i, err1, err2)
			}
			if fresh.Feasible != pooled.Feasible || fresh.Makespan != pooled.Makespan ||
				fresh.Nodes != pooled.Nodes || fresh.MemoHits != pooled.MemoHits {
				t.Fatalf("round %d shape %d: fresh=%+v pooled=%+v", round, i, fresh, pooled)
			}
			for j := range fresh.Starts {
				if fresh.Starts[j] != pooled.Starts[j] {
					t.Fatalf("round %d shape %d: starts differ at %d", round, i, j)
				}
			}
		}
	}
}
