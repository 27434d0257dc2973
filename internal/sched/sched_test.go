package sched

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// chain4 builds a simple 4-device V-shape-like placement: f0→f1→f2→f3→b3→b2→b1→b0
// with fwd time 1 / bwd time 2 and activation memory +1/−1.
func chain4() *Placement {
	p := &Placement{Name: "chain4", NumDevices: 4}
	for i := 0; i < 4; i++ {
		p.Stages = append(p.Stages, Stage{Name: "f", Kind: Forward, Time: 1, Mem: 1, Devices: []DeviceID{DeviceID(i)}})
	}
	for i := 3; i >= 0; i-- {
		p.Stages = append(p.Stages, Stage{Name: "b", Kind: Backward, Time: 2, Mem: -1, Devices: []DeviceID{DeviceID(i)}})
	}
	p.Deps = make([][]int, 8)
	for i := 0; i < 7; i++ {
		p.Deps[i] = []int{i + 1}
	}
	return p
}

func TestPlacementValidate(t *testing.T) {
	p := chain4()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
}

func TestPlacementValidateRejectsCycle(t *testing.T) {
	p := chain4()
	p.Deps[7] = []int{0} // b0 → f0 closes a cycle
	if err := p.Validate(); err == nil {
		t.Fatal("cyclic placement accepted")
	}
}

func TestPlacementValidateRejectsBadDevice(t *testing.T) {
	p := chain4()
	p.Stages[0].Devices = []DeviceID{9}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range device accepted")
	}
}

func TestPlacementValidateRejectsZeroTime(t *testing.T) {
	p := chain4()
	p.Stages[2].Time = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero-time stage accepted")
	}
}

// TestPlacementValidateStageTimeCap: a stage time is accepted up to
// MaxStageTime and refused above it, far above it included.
func TestPlacementValidateStageTimeCap(t *testing.T) {
	for _, c := range []struct {
		time int
		ok   bool
	}{
		{1, true}, {MaxStageTime - 1, true}, {MaxStageTime, true},
		{MaxStageTime + 1, false}, {1 << 58, false}, {1 << 61, false}, {math.MaxInt, false},
	} {
		p := chain4()
		p.Stages[5].Time = c.time
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("stage time %d: err %v, want accepted %v", c.time, err, c.ok)
		}
	}
}

// TestPlacementValidateStageMemCap: a memory delta is accepted within
// ±MaxStageMem and refused beyond it on either side, where the search's and
// Schedule.Validate's memory sums could wrap.
func TestPlacementValidateStageMemCap(t *testing.T) {
	for _, c := range []struct {
		mem int
		ok  bool
	}{
		{0, true}, {MaxStageMem, true}, {-MaxStageMem, true},
		{MaxStageMem + 1, false}, {-MaxStageMem - 1, false}, {1 << 62, false}, {math.MinInt, false},
	} {
		p := chain4()
		p.Stages[5].Mem = c.mem
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("stage memory %d: err %v, want accepted %v", c.mem, err, c.ok)
		}
	}
}

// TestPlacementValidateDeviceCap: a device count is accepted up to
// maxDevices and refused above it, where validating a schedule of the
// placement would allocate per-device state for every one of them.
func TestPlacementValidateDeviceCap(t *testing.T) {
	for _, c := range []struct {
		devices int
		ok      bool
	}{{maxDevices, true}, {maxDevices + 1, false}, {1 << 40, false}, {math.MaxInt, false}} {
		p := chain4()
		p.NumDevices = c.devices
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("%d devices: err %v, want accepted %v", c.devices, err, c.ok)
		}
	}
}

// oneDeviceChain is a chain of k one-tick stages on one device.
func oneDeviceChain(k int) *Placement {
	p := &Placement{Name: "chain", NumDevices: 1, Deps: make([][]int, k)}
	for i := 0; i < k; i++ {
		p.Stages = append(p.Stages, Stage{Name: "s", Kind: Forward, Time: 1, Devices: []DeviceID{0}})
		if i+1 < k {
			p.Deps[i] = []int{i + 1}
		}
	}
	return p
}

// TestDecodePlacementStageCap: a decoded placement holds at most maxStages
// stages, where a search's first repetend solve grows with the square of a
// device's stage count; the same placement built in Go still validates.
func TestDecodePlacementStageCap(t *testing.T) {
	for _, k := range []int{maxStages, maxStages + 1} {
		p := oneDeviceChain(k)
		var buf bytes.Buffer
		if err := EncodePlacement(&buf, p); err != nil {
			t.Fatal(err)
		}
		_, err := DecodePlacement(&buf)
		if ok := k <= maxStages; (err == nil) != ok {
			t.Errorf("%d stages: err %v, want accepted %v", k, err, ok)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%d stages built in Go: %v", k, err)
		}
	}
}

func TestPlacementValidateRejectsDupDevice(t *testing.T) {
	p := chain4()
	p.Stages[0].Devices = []DeviceID{0, 0}
	if err := p.Validate(); err == nil {
		t.Fatal("duplicate device accepted")
	}
}

func TestTopoOrder(t *testing.T) {
	p := chain4()
	order, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(order))
	for idx, v := range order {
		pos[v] = idx
	}
	for u, succs := range p.Deps {
		for _, v := range succs {
			if pos[u] >= pos[v] {
				t.Fatalf("topo order violates %d→%d", u, v)
			}
		}
	}
}

func TestDeviceWorkAndLowerBound(t *testing.T) {
	p := chain4()
	for d := 0; d < 4; d++ {
		if w := p.DeviceWork(DeviceID(d)); w != 3 {
			t.Fatalf("device %d work = %d, want 3", d, w)
		}
	}
	if lb := p.LowerBound(); lb != 3 {
		t.Fatalf("lower bound = %d, want 3", lb)
	}
	if tw := p.TotalWork(); tw != 12 {
		t.Fatalf("total work = %d, want 12", tw)
	}
}

func TestPredsAndSuccs(t *testing.T) {
	p := chain4()
	if got := p.Preds(0); len(got) != 0 {
		t.Fatalf("f0 preds = %v, want none", got)
	}
	if got := p.Preds(4); len(got) != 1 || got[0] != 3 {
		t.Fatalf("b3 preds = %v, want [3]", got)
	}
	if got := p.Succs(3); len(got) != 1 || got[0] != 4 {
		t.Fatalf("f3 succs = %v, want [4]", got)
	}
	preds := p.PredTable()
	if len(preds[7]) != 1 || preds[7][0] != 6 {
		t.Fatalf("pred table for b0 = %v, want [6]", preds[7])
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := chain4()
	q := p.Clone()
	q.Stages[0].Time = 99
	q.Deps[0][0] = 7
	q.Stages[0].Devices[0] = 3
	if p.Stages[0].Time == 99 || p.Deps[0][0] == 7 || p.Stages[0].Devices[0] == 3 {
		t.Fatal("Clone shares mutable state with original")
	}
}

// sequentialSchedule lays out N micro-batches strictly sequentially
// (GPipe-without-pipelining): always valid, never overlapping.
func sequentialSchedule(p *Placement, n int) *Schedule {
	s := NewSchedule(p)
	order, _ := p.TopoOrder()
	t := 0
	for m := 0; m < n; m++ {
		for _, st := range order {
			s.Add(st, m, t)
			t += p.Stages[st].Time
		}
	}
	return s
}

func TestValidateSequential(t *testing.T) {
	p := chain4()
	s := sequentialSchedule(p, 3)
	if err := s.Validate(ValidateOptions{Memory: Unbounded}); err != nil {
		t.Fatalf("sequential schedule invalid: %v", err)
	}
	// Memory never exceeds 1 on any device (one activation in flight).
	if err := s.Validate(ValidateOptions{Memory: 1}); err != nil {
		t.Fatalf("sequential schedule should fit in memory 1: %v", err)
	}
}

func TestValidateDetectsOverlap(t *testing.T) {
	p := chain4()
	s := NewSchedule(p)
	s.Add(0, 0, 0)
	s.Add(0, 1, 0) // same device, same time
	if err := s.Validate(ValidateOptions{Memory: Unbounded}); err == nil {
		t.Fatal("overlap not detected")
	}
}

func TestValidateDetectsDependencyViolation(t *testing.T) {
	p := chain4()
	s := NewSchedule(p)
	s.Add(0, 0, 5)
	s.Add(1, 0, 0) // f1 before f0 finished
	if err := s.Validate(ValidateOptions{Memory: Unbounded}); err == nil {
		t.Fatal("dependency violation not detected")
	}
}

func TestValidateDetectsDuplicateBlock(t *testing.T) {
	p := chain4()
	s := NewSchedule(p)
	s.Add(0, 0, 0)
	s.Add(0, 0, 10)
	if err := s.Validate(ValidateOptions{Memory: Unbounded}); err == nil {
		t.Fatal("duplicate block not detected")
	}
}

func TestValidateMemoryCap(t *testing.T) {
	p := chain4()
	s := NewSchedule(p)
	// Two forwards start on device 0 before any backward: memory reaches 2.
	s.Add(0, 0, 0)
	s.Add(0, 1, 1)
	if err := s.Validate(ValidateOptions{Memory: 1}); err == nil {
		t.Fatal("memory overflow not detected")
	}
	if err := s.Validate(ValidateOptions{Memory: 2}); err != nil {
		t.Fatalf("memory 2 should suffice: %v", err)
	}
}

func TestValidateInitialMemory(t *testing.T) {
	p := chain4()
	s := NewSchedule(p)
	s.Add(0, 0, 0)
	init := []int{1, 0, 0, 0}
	if err := s.Validate(ValidateOptions{Memory: 1, InitialMem: init}); err == nil {
		t.Fatal("initial memory not accounted")
	}
	if err := s.Validate(ValidateOptions{Memory: 2, InitialMem: init}); err != nil {
		t.Fatalf("memory 2 with initial 1 should fit: %v", err)
	}
}

func TestMakespanAndStart(t *testing.T) {
	p := chain4()
	s := sequentialSchedule(p, 2)
	// One micro-batch takes 4*1 + 4*2 = 12 ticks; two sequential = 24.
	if ms := s.Makespan(); ms != 24 {
		t.Fatalf("makespan = %d, want 24", ms)
	}
	if st := s.Start(); st != 0 {
		t.Fatalf("start = %d, want 0", st)
	}
	for i := range s.Items {
		s.Items[i].Start += 5
	}
	if st := s.Start(); st != 5 {
		t.Fatalf("start after shift = %d, want 5", st)
	}
	if ms := s.Makespan(); ms != 29 {
		t.Fatalf("makespan after shift = %d, want 29", ms)
	}
}

func TestBubbleRateSequential(t *testing.T) {
	p := chain4()
	s := sequentialSchedule(p, 1)
	// 12 device-time of work over 4 devices × 12 ticks = 48; bubble = 0.75.
	got := s.OverallBubbleRate()
	if got < 0.74 || got > 0.76 {
		t.Fatalf("bubble rate = %f, want 0.75", got)
	}
}

func TestBubbleRateWindowClipping(t *testing.T) {
	p := chain4()
	s := NewSchedule(p)
	s.Add(0, 0, 0) // device 0, [0,1)
	// Window [0,1): device 0 fully busy, 3 others idle → bubble 0.75.
	if got := s.BubbleRate(0, 1); got != 0.75 {
		t.Fatalf("bubble = %f, want 0.75", got)
	}
	// Degenerate window.
	if got := s.BubbleRate(5, 5); got != 0 {
		t.Fatalf("empty window bubble = %f, want 0", got)
	}
}

func TestPeakAndFinalMemory(t *testing.T) {
	p := chain4()
	s := sequentialSchedule(p, 2)
	peaks := s.PeakMemory(nil)
	for d, pk := range peaks {
		if pk != 1 {
			t.Fatalf("device %d peak = %d, want 1", d, pk)
		}
	}
	final := s.FinalMemory(nil)
	for d, fm := range final {
		if fm != 0 {
			t.Fatalf("device %d final = %d, want 0 (balanced fwd/bwd)", d, fm)
		}
	}
}

func TestDeviceOrderAndItems(t *testing.T) {
	p := chain4()
	s := sequentialSchedule(p, 2)
	order := s.DeviceOrder()
	if len(order) != 4 {
		t.Fatalf("device order length = %d", len(order))
	}
	// Device 0 runs f0(m0), b0(m0), f0(m1), b0(m1).
	want := []Block{{0, 0}, {7, 0}, {0, 1}, {7, 1}}
	if len(order[0]) != len(want) {
		t.Fatalf("device 0 has %d blocks, want %d", len(order[0]), len(want))
	}
	for i, b := range want {
		if order[0][i] != b {
			t.Fatalf("device 0 order[%d] = %v, want %v", i, order[0][i], b)
		}
	}
	items := s.DeviceItems(0)
	if len(items) != 4 {
		t.Fatalf("DeviceItems(0) length = %d, want 4", len(items))
	}
}

func TestFindAndMicros(t *testing.T) {
	p := chain4()
	s := sequentialSchedule(p, 3)
	if _, ok := s.Find(0, 2); !ok {
		t.Fatal("Find missed existing block")
	}
	if _, ok := s.Find(0, 5); ok {
		t.Fatal("Find reported non-existent block")
	}
	micros := s.Micros()
	if len(micros) != 3 || micros[0] != 0 || micros[2] != 2 {
		t.Fatalf("micros = %v, want [0 1 2]", micros)
	}
}

// timelinePeak recomputes per-device peak memory by brute force over every
// time instant, to cross-check the start-order prefix accounting.
func timelinePeak(s *Schedule) []int {
	peaks := make([]int, s.P.NumDevices)
	horizon := s.Makespan() + 1
	for d := 0; d < s.P.NumDevices; d++ {
		peak := 0
		for tau := 0; tau <= horizon; tau++ {
			mem := 0
			for _, it := range s.Items {
				if it.Start < tau && s.P.Stages[it.Stage].OnDevice(DeviceID(d)) {
					mem += s.P.Stages[it.Stage].Mem
				}
			}
			if mem > peak {
				peak = mem
			}
		}
		peaks[d] = peak
	}
	return peaks
}

// TestMemoryAccountingEquivalence is the property test promised in
// DESIGN.md: on random valid-by-construction schedules, prefix-order peak
// accounting equals brute-force timeline accounting.
func TestMemoryAccountingEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := chain4()
		s := NewSchedule(p)
		// Random per-device sequential packing with random gaps: exclusivity
		// holds by construction; memory/deps may not, which is fine — the
		// accounting must agree regardless.
		devClock := make([]int, p.NumDevices)
		for m := 0; m < 3; m++ {
			for st := range p.Stages {
				d := p.Stages[st].Devices[0]
				start := devClock[d] + rng.Intn(3)
				s.Add(st, m, start)
				devClock[d] = start + p.Stages[st].Time
			}
		}
		a := s.PeakMemory(nil)
		b := timelinePeak(s)
		for d := range a {
			// timelinePeak floors at 0 (initial state); PeakMemory can also
			// report the initial 0 as the peak when all prefixes are ≤ 0.
			pa := a[d]
			if pa < 0 {
				pa = 0
			}
			if pa != b[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleSortDeterministic(t *testing.T) {
	p := chain4()
	s := NewSchedule(p)
	s.Add(3, 0, 5)
	s.Add(1, 0, 2)
	s.Add(2, 0, 2)
	s.Sort()
	if s.Items[0].Stage != 1 || s.Items[1].Stage != 2 || s.Items[2].Stage != 3 {
		t.Fatalf("sort order wrong: %v", s.Items)
	}
}

func TestKindString(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" || Aux.String() != "aux" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestStageIDByName(t *testing.T) {
	p := chain4()
	p.Stages[0].Name = "f0"
	if id := p.StageIDByName("f0"); id != 0 {
		t.Fatalf("StageIDByName = %d, want 0", id)
	}
	if id := p.StageIDByName("nope"); id != -1 {
		t.Fatalf("StageIDByName missing = %d, want -1", id)
	}
}

// TestBlockIndexCostFollowsItems: however a schedule's micro-batch indices
// are spread, offset or ordered, filling the index the way Validate does
// costs a few probe steps per item, where a probe cluster as long as the
// schedule costs a number of steps that grows with its square: spreads of
// 2,048 and wider took 15.7 million steps, 2,800 per item, when the start
// slot dropped a key's bits above the table size, and two runs of
// micro-batches 10^6 apart took 809,100, 144 per item in every insert order,
// when a probe stepped one slot at a time out of the run of slots the first
// run takes. Consecutive micro-batches from the first item's on take
// distinct home slots in order, at no step at all. Steps are counted along
// each item's probe sequence, from its home slot to the slot it takes.
func TestBlockIndexCostFollowsItems(t *testing.T) {
	p := chain4()
	type fill struct {
		name    string
		s       *Schedule
		order   []int // the items' insert order
		ordered bool  // consecutive micro-batches in item order: no step at all
	}
	inOrder := func(n int) []int {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}
	var fills []fill
	for _, spread := range []int{1, -1, 2, 3, 7, 1023, 2047, 2048, 2049, 1<<20 - 1, 1 << 20, 1 << 40} {
		for _, offset := range []int{0, -350, 1e6, -1e6} {
			s := sequentialSchedule(p, 700)
			for i := range s.Items {
				s.Items[i].Micro = s.Items[i].Micro*spread + offset
			}
			fills = append(fills, fill{fmt.Sprintf("spread %d, offset %d", spread, offset), s, inOrder(s.Len()), spread == 1})
		}
	}
	// Micro-batches 0–349 and 10^6+350–10^6+699: the first run takes home
	// slots in order, and the hashed keys of the second land among them.
	twoRuns := sequentialSchedule(p, 700)
	for i := range twoRuns.Items {
		if twoRuns.Items[i].Micro >= 350 {
			twoRuns.Items[i].Micro += 1e6
		}
	}
	reversed := inOrder(twoRuns.Len())
	slices.Reverse(reversed)
	fills = append(fills,
		fill{"two runs, item order", twoRuns, inOrder(twoRuns.Len()), false},
		fill{"two runs, reversed", twoRuns, reversed, false},
		fill{"two runs, shuffled", twoRuns, rand.New(rand.NewSource(42)).Perm(twoRuns.Len()), false})
	// walk counts the steps of b's probe sequence, by probe's rule, to slot
	// j: a home slot, then an odd stride from the key's hash.
	walk := func(x *blockIndex, b Block, j int) int {
		key := uint(b.Micro-x.base)<<x.shift + uint(b.Stage)
		h := key * 0x9E3779B97F4A7C15
		i := int(h >> x.hash)
		if key <= x.mask {
			i = int(key)
		}
		for steps := 0; steps <= int(x.mask); steps++ {
			if i == j {
				return steps
			}
			i = (i + int(h>>32|1)) & int(x.mask)
		}
		t.Fatalf("slot %d is not on %v's probe sequence", j, b)
		return 0
	}
	for _, f := range fills {
		x := newBlockIndex(f.s.Items, p.K())
		steps, last := 0, -1
		for _, i := range f.order {
			it := f.s.Items[i]
			j := x.probe(it.Block)
			if x.slots[j] != 0 {
				t.Fatalf("%s: item %d found before it was added", f.name, i)
			}
			steps += walk(&x, it.Block, j)
			x.slots[j] = int32(i + 1)
			if f.ordered && j <= last {
				t.Fatalf("%s: item %d's slot %d is not past the last, %d", f.name, i, j, last)
			}
			last = j
		}
		if steps > 8*len(f.s.Items) || f.ordered && steps != 0 {
			t.Errorf("%s: %d probe steps for %d items", f.name, steps, len(f.s.Items))
		}
		if err := f.s.Validate(ValidateOptions{Memory: Unbounded}); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}
	}
}

// TestBlockIndex fills the index Validate looks dependencies up in with a
// schedule of 700 consecutive micro-batches, whose blocks take distinct
// slots, and with the same schedule's micro-batch indices spread 2048 apart,
// whose keys lie beyond the table and are hashed; either way it finds every
// block and no other.
func TestBlockIndex(t *testing.T) {
	p := chain4()
	for _, spread := range []int{1, 2048} {
		s := sequentialSchedule(p, 700)
		for i := range s.Items {
			s.Items[i].Micro *= spread
		}
		index := newBlockIndex(s.Items, p.K())
		for i := range s.Items {
			if old, dup := index.add(i); dup {
				t.Fatalf("spread %d: item %d reported as a duplicate of %v", spread, i, old)
			}
		}
		for i, it := range s.Items {
			if got, ok := index.find(it.Block); !ok || got != it {
				t.Fatalf("spread %d: item %d: found %v, %t", spread, i, got, ok)
			}
			if old, dup := index.add(i); !dup || old != it {
				t.Fatalf("spread %d: item %d added twice: %v, %t", spread, i, old, dup)
			}
		}
		for _, b := range []Block{{Stage: 0, Micro: 700 * spread}, {Stage: 8, Micro: 0}, {Stage: 3, Micro: -1}, {Stage: 1, Micro: 699*spread + 1}} {
			if got, ok := index.find(b); ok {
				t.Fatalf("spread %d: absent block %v found as %v", spread, b, got)
			}
		}
	}
}
