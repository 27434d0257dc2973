package sched

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// Block identifies one execution block: stage i of micro-batch n (B^n_i in
// the paper's notation).
type Block struct {
	// Stage is the index into Placement.Stages.
	Stage int
	// Micro is the micro-batch index n, 0 ≤ n < N.
	Micro int
}

// String renders the block as "stage@micro" using the placement-independent
// indices; use Placement.Stages[b.Stage].Name for the friendly name.
func (b Block) String() string { return fmt.Sprintf("B%d@%d", b.Stage, b.Micro) }

// Item is a scheduled block: a block plus its assigned start time s_B.
type Item struct {
	Block
	// Start is the integer start time of the block; the block occupies its
	// devices over [Start, Start+Time).
	Start int
}

// Schedule is a (partial or complete) temporal schedule: an assignment of
// start times to blocks of a placement. The zero value is an empty schedule
// and is ready to use once P is set.
type Schedule struct {
	// P is the placement whose stages the items reference.
	P *Placement
	// Items holds the scheduled blocks in no particular order; use Sort for
	// deterministic start-time order.
	Items []Item
}

// NewSchedule returns an empty schedule over placement p.
func NewSchedule(p *Placement) *Schedule {
	return &Schedule{P: p}
}

// Add appends a scheduled block.
func (s *Schedule) Add(stage, micro, start int) {
	s.Items = append(s.Items, Item{Block: Block{Stage: stage, Micro: micro}, Start: start})
}

// Len returns the number of scheduled blocks.
func (s *Schedule) Len() int { return len(s.Items) }

// compareItems orders items by (Start, Stage, Micro), the canonical item
// order of a schedule. It is cheap enough to inline into a merge's loop.
func compareItems(a, b Item) int {
	switch {
	case a.Start < b.Start || a.Start == b.Start && (a.Stage < b.Stage || a.Stage == b.Stage && a.Micro < b.Micro):
		return -1
	case a == b:
		return 0
	}
	return 1
}

// Sort orders items by (Start, Stage, Micro) for deterministic iteration.
func (s *Schedule) Sort() {
	//tessel:totalorder (Start, Stage, Micro) is unique per item, so every tie is broken
	slices.SortFunc(s.Items, compareItems)
}

// Clone returns a deep copy sharing the placement.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{P: s.P, Items: append([]Item(nil), s.Items...)}
}

// Merge appends to dst the items of parts, each part in (Start, Stage, Micro)
// order, in that order, and returns the result as a schedule over p: one
// linear pass, a run at a time (mergeRuns), where sorting the concatenation
// would pay a log factor. A part may lie in dst's own array, starting at or
// past len(dst) plus the other parts' item count: the merge writes forward
// and never past the next item it reads from that part, so the part is
// merged in place. AppendMerged encodes the same merge without building it.
func Merge(p *Placement, dst []Item, parts ...[]Item) *Schedule {
	n := len(dst)
	for _, q := range parts {
		n += len(q)
	}
	out := &Schedule{P: p, Items: slices.Grow(dst, n-len(dst))}
	mergeRuns(parts, func(run []Item) { out.Items = append(out.Items, run...) })
	return out
}

// mergeRuns hands emit the items of parts, each part in item order, as the
// runs of their merge in order: each run the longest stretch of one part
// whose items all precede the next item of every other part. Ties between
// parts go to the earlier part. A single part is one run, whatever its
// order. emit may write over an item of a part it has already been handed.
func mergeRuns(parts [][]Item, emit func([]Item)) {
	heads := append(make([][]Item, 0, 3), parts...) // on the stack for up to three parts
	for {
		lo, next := -1, -1 // the parts with the smallest and second-smallest next item
		for x, h := range heads {
			switch {
			case len(h) == 0:
			case lo < 0 || compareItems(h[0], heads[lo][0]) < 0:
				lo, next = x, lo
			case next < 0 || compareItems(h[0], heads[next][0]) < 0:
				next = x
			}
		}
		if lo < 0 {
			return
		}
		h, run := heads[lo], 1 // lo's run of items before next's next one
		for run < len(h) && (next < 0 || compareItems(h[run], heads[next][0]) < 0) {
			run++
		}
		heads[lo] = h[run:]
		emit(h[:run])
	}
}

// Start returns the earliest start time among items, or 0 if empty.
func (s *Schedule) Start() int {
	if len(s.Items) == 0 {
		return 0
	}
	min := s.Items[0].Start
	for _, it := range s.Items[1:] {
		if it.Start < min {
			min = it.Start
		}
	}
	return min
}

// Makespan returns max_B (s_B + t_B), the completion time of the last block
// (Equation 1's objective), or 0 for an empty schedule.
func (s *Schedule) Makespan() int {
	end := 0
	for _, it := range s.Items {
		if e := it.Start + s.P.Stages[it.Stage].Time; e > end {
			end = e
		}
	}
	return end
}

// Find returns the item scheduling block (stage,micro) and whether it exists.
func (s *Schedule) Find(stage, micro int) (Item, bool) {
	for _, it := range s.Items {
		if it.Stage == stage && it.Micro == micro {
			return it, true
		}
	}
	return Item{}, false
}

// deviceItems returns, for each device, the items occupying it, sorted by
// start time; those of a schedule in item order are sorted as they are built.
// DeviceItems, PeakMemory and DeviceOrder read these lists; Validate walks
// the items in place instead of copying them.
func (s *Schedule) deviceItems() [][]Item {
	// Counted first, so that the lists are carved from one array.
	count := make([]int, s.P.NumDevices)
	total := 0
	for _, it := range s.Items {
		for _, d := range s.P.Stages[it.Stage].Devices {
			count[d]++
			total++
		}
	}
	per := make([][]Item, s.P.NumDevices)
	backing := make([]Item, total)
	for d, c := range count {
		per[d], backing = backing[:0:c], backing[c:]
	}
	for _, it := range s.Items {
		for _, d := range s.P.Stages[it.Stage].Devices {
			per[d] = append(per[d], it)
		}
	}
	if slices.IsSortedFunc(s.Items, compareItems) {
		return per
	}
	for d := range per {
		//tessel:totalorder (Start, Stage, Micro) is unique per item, so every tie is broken
		slices.SortFunc(per[d], compareItems)
	}
	return per
}

// DeviceItems returns the items occupying device d sorted by start time.
func (s *Schedule) DeviceItems(d DeviceID) []Item {
	return s.deviceItems()[d]
}

// ValidateOptions parameterizes schedule validation.
type ValidateOptions struct {
	// Memory is the per-device memory capacity M; use Unbounded to disable
	// the memory constraint.
	Memory int
	// InitialMem gives the memory already in use on each device when the
	// schedule begins (e.g. warmup residue at repetend entry). A nil slice
	// means all zeros; a shorter one than NumDevices is an error.
	InitialMem []int
}

// Validate checks the three constraint families of Equation 1 against the
// schedule: [1] exclusive execution per device, [2] per-device peak memory,
// and [3] data dependencies within each micro-batch. It returns nil when
// the schedule is valid. It walks the items in (Start, Stage, Micro) order,
// which every composition, restore and peer fetch hands it as it stands; any
// other schedule is checked on a sorted copy, so Items keeps its order.
func (s *Schedule) Validate(opts ValidateOptions) error {
	p := s.P
	if p == nil {
		return fmt.Errorf("schedule has no placement")
	}
	if opts.InitialMem != nil && len(opts.InitialMem) < p.NumDevices {
		return fmt.Errorf("initial memory for %d devices, placement has %d", len(opts.InitialMem), p.NumDevices)
	}
	items := s.Items
	if !slices.IsSortedFunc(items, compareItems) {
		sorted := s.Clone()
		sorted.Sort()
		items = sorted.Items
	}
	// Constraints [1] and [2], one pass: on each device a block starts no
	// earlier than the device's previous block ends, and memory, which
	// changes at block starts only (Equation 1 item [2] sums blocks with
	// s_B < τ), stays within the capacity after every start.
	D := p.NumDevices
	state := make([]int, 3*D)
	free, last, mem := state[:D], state[D:2*D], state[2*D:] // d's latest block: its end and its position
	copy(mem, opts.InitialMem)
	capped := opts.Memory != Unbounded
	for d, m := range mem {
		if free[d] = math.MinInt; capped && m > opts.Memory {
			return fmt.Errorf("device %d: initial memory %d exceeds capacity %d", d, m, opts.Memory)
		}
	}
	for i, it := range items {
		st := &p.Stages[it.Stage]
		for _, d := range st.Devices {
			if it.Start < free[d] {
				prev := items[last[d]]
				return fmt.Errorf("device %d: blocks %v@t%d and %v@t%d overlap", d, prev.Block, prev.Start, it.Block, it.Start)
			}
			free[d], last[d] = it.Start+st.Time, i
			if mem[d] += st.Mem; capped && mem[d] > opts.Memory {
				return fmt.Errorf("device %d: memory %d exceeds capacity %d after %v starts at t=%d", d, mem[d], opts.Memory, it.Block, it.Start)
			}
		}
	}
	// Constraint [3]: dependencies within each micro-batch.
	x := newBlockIndex(items, p.K())
	defer x.release()
	for i, it := range items {
		j := x.probe(it.Block)
		if at := x.slots[j]; at != 0 {
			return fmt.Errorf("block %v scheduled twice (t=%d and t=%d)", it.Block, items[at-1].Start, it.Start)
		}
		x.slots[j] = int32(i + 1)
	}
	for _, it := range items {
		end := it.Start + p.Stages[it.Stage].Time
		for _, succ := range p.Deps[it.Stage] {
			// A successor no item schedules is not part of this (partial) schedule.
			if at := x.slots[x.probe(Block{Stage: succ, Micro: it.Micro})]; at != 0 && end > items[at-1].Start {
				dep := items[at-1]
				return fmt.Errorf("dependency violated: %v (ends t=%d) → %v (starts t=%d)", it.Block, end, dep.Block, dep.Start)
			}
		}
	}
	return nil
}

// blockIndex finds the item that schedules a block, for Validate's duplicate
// and dependency checks, its only user. Validate looks up every dependency
// edge of every item, which a map[Block]Item made the larger half of
// validating a schedule; this is one array of item positions, open addressed
// and at most half full. Validate runs on every schedule the server composes,
// so the array is taken from a pool and cleared, not allocated.
type blockIndex struct {
	items  []Item
	slots  []int32  // position in items + 1; 0 marks a free slot
	pooled *[]int32 // the pool's box for slots
	shift  uint     // the stage count's bit length: a micro-batch's slots are 1<<shift apart
	mask   uint     // the table size less one
	hash   uint     // 64 − log2 of the table size: a hash's top log2(size) bits are its slot
	base   int      // the micro-batch keys count from: the first item's
}

// blockSlots recycles blockIndex arrays. One larger than maxPooledSlots (a
// schedule of over 32,768 items) is left to the collector instead of pinned.
var blockSlots = sync.Pool{New: func() any { return new([]int32) }}

const maxPooledSlots = 256 << 10 / 4 // 256 KB of int32

// newBlockIndex returns the empty index of items over k stages. Its array is
// the pool's until release.
func newBlockIndex(items []Item, k int) blockIndex {
	size := 4
	for size < 2*len(items) {
		size *= 2
	}
	x := blockIndex{items: items, pooled: blockSlots.Get().(*[]int32), shift: uint(bits.Len(uint(max(k, 1) - 1))),
		mask: uint(size - 1), hash: uint(bits.LeadingZeros(uint(size - 1)))}
	if cap(*x.pooled) >= size {
		x.slots = (*x.pooled)[:size]
		clear(x.slots)
	} else {
		x.slots = make([]int32, size)
	}
	if len(items) > 0 {
		x.base = items[0].Micro
	}
	return x
}

// release hands x's array back to the pool; x must not be used after.
func (x *blockIndex) release() {
	if cap(x.slots) <= maxPooledSlots {
		*x.pooled = x.slots
		blockSlots.Put(x.pooled)
	}
}

// probe returns the slot holding block b, or the free slot where it belongs.
// b's key is its micro-batch counted from the first item's, shifted, plus its
// stage. A key below the table's size is its own home slot, so consecutive
// micro-batches from the first item's on, as every schedule the search builds
// holds, take distinct slots in order. Any other key (indices below the first
// item's, or spread, as a hand-made or decoded schedule may hold them) is
// homed by a Fibonacci hash of all its bits. Past a taken home the probe
// steps by an odd stride from the hash's middle bits, so a key homed inside a
// run of taken slots leaves it in a step or two, not at the run's end. Kept
// small enough to inline into Validate.
func (x *blockIndex) probe(b Block) int {
	key := uint(b.Micro-x.base)<<x.shift + uint(b.Stage)
	h := key * 0x9E3779B97F4A7C15
	i := int(h >> x.hash)
	if key <= x.mask {
		i = int(key)
	}
	for x.slots[i] != 0 && x.items[x.slots[i]-1].Block != b {
		i = (i + int(h>>32|1)) & int(x.mask)
	}
	return i
}

// PeakMemory returns the peak memory per device under the start-order
// accounting of Equation 1 item [2], starting from initialMem (nil = zeros).
func (s *Schedule) PeakMemory(initialMem []int) []int {
	per := s.deviceItems()
	peaks := make([]int, s.P.NumDevices)
	for d, items := range per {
		mem := 0
		if initialMem != nil {
			mem = initialMem[d]
		}
		peak := mem
		for _, it := range items {
			mem += s.P.Stages[it.Stage].Mem
			if mem > peak {
				peak = mem
			}
		}
		peaks[d] = peak
	}
	return peaks
}

// FinalMemory returns per-device memory in use after all scheduled blocks
// have started, starting from initialMem (nil = zeros). This is the entry
// state for a subsequent phase.
func (s *Schedule) FinalMemory(initialMem []int) []int {
	out := make([]int, s.P.NumDevices)
	if initialMem != nil {
		copy(out, initialMem)
	}
	for _, it := range s.Items {
		for _, d := range s.P.Stages[it.Stage].Devices {
			out[d] += s.P.Stages[it.Stage].Mem
		}
	}
	return out
}

// BusyTime returns the total device-busy time per device over the whole
// schedule.
func (s *Schedule) BusyTime() []int {
	busy := make([]int, s.P.NumDevices)
	for _, it := range s.Items {
		for _, d := range s.P.Stages[it.Stage].Devices {
			busy[d] += s.P.Stages[it.Stage].Time
		}
	}
	return busy
}

// BubbleRate returns the fraction of device idle time over the window
// [from, to) across all devices: 1 − Σ_d busy_d / (D·(to−from)). Busy time
// is clipped to the window. It reports 0 for an empty window.
func (s *Schedule) BubbleRate(from, to int) float64 {
	if to <= from || s.P.NumDevices == 0 {
		return 0
	}
	window := to - from
	busy := 0
	for _, it := range s.Items {
		start, end := it.Start, it.Start+s.P.Stages[it.Stage].Time
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		if end > start {
			busy += (end - start) * len(s.P.Stages[it.Stage].Devices)
		}
	}
	total := s.P.NumDevices * window
	return 1 - float64(busy)/float64(total)
}

// OverallBubbleRate returns the bubble rate over [Start, Makespan).
func (s *Schedule) OverallBubbleRate() float64 {
	return s.BubbleRate(s.Start(), s.Makespan())
}

// DeviceOrder returns, for each device, the blocks in start order. This is
// the per-device execution order that runtime instantiation consumes.
func (s *Schedule) DeviceOrder() [][]Block {
	per := s.deviceItems()
	out := make([][]Block, len(per))
	for d, items := range per {
		for _, it := range items {
			out[d] = append(out[d], it.Block)
		}
	}
	return out
}

// Micros returns the sorted distinct micro-batch indices present.
func (s *Schedule) Micros() []int {
	seen := map[int]bool{}
	for _, it := range s.Items {
		seen[it.Micro] = true
	}
	out := make([]int, 0, len(seen))
	//tessel:orderfree keys are collected then sorted before returning
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
