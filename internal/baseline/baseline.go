// Package baseline implements the predefined schedules Tessel is compared
// against in §VI-A of the paper: 1F1B (Fan et al., the default schedule of
// Megatron-style V-shape pipelines), GPipe, Chimera-direct (bidirectional
// X-shape), 1F1B+ (1F1B manually adapted to advanced placements by inserting
// the distributed operators next to their neighboring operators), and pure
// tensor parallelism for inference.
//
// All generators produce sched.Schedule values over the same block model the
// Tessel search uses, so bubble rates and simulated runtimes are directly
// comparable.
package baseline

import (
	"fmt"
	"sort"

	"tessel/internal/sched"
)

// dispatch performs deterministic list scheduling with a fixed priority per
// block: at every step, among blocks whose predecessors have finished, the
// lowest-priority block starts at its earliest feasible time. Ties break on
// priority, so the produced schedule is deterministic. Priorities encode the
// intended baseline order; dependencies are always honored, which lets a
// mildly inconsistent cross-device order degrade into waiting instead of
// deadlock.
func dispatch(p *sched.Placement, blocks []sched.Block, prio map[sched.Block]int) (*sched.Schedule, error) {
	return dispatchFrom(p, blocks, prio, nil)
}

// dispatchFrom is dispatch with per-device initial availability, used to
// concatenate scheduling waves (ChimeraDirect).
func dispatchFrom(p *sched.Placement, blocks []sched.Block, prio map[sched.Block]int, devReady []int) (*sched.Schedule, error) {
	type node struct {
		b        sched.Block
		preds    []int
		predLeft int
		finish   int
	}
	index := make(map[sched.Block]int, len(blocks))
	nodes := make([]node, len(blocks))
	for i, b := range blocks {
		if _, dup := index[b]; dup {
			return nil, fmt.Errorf("baseline: block %v listed twice", b)
		}
		index[b] = i
		nodes[i] = node{b: b}
	}
	predTable := p.PredTable()
	succs := make([][]int, len(blocks))
	for i, b := range blocks {
		for _, ps := range predTable[b.Stage] {
			if j, ok := index[sched.Block{Stage: ps, Micro: b.Micro}]; ok {
				nodes[i].preds = append(nodes[i].preds, j)
				nodes[i].predLeft++
				succs[j] = append(succs[j], i)
			}
		}
	}
	// Ready set ordered by priority.
	var ready []int
	for i := range nodes {
		if nodes[i].predLeft == 0 {
			ready = append(ready, i)
		}
	}
	devAvail := make([]int, p.NumDevices)
	if devReady != nil {
		copy(devAvail, devReady)
	}
	s := sched.NewSchedule(p)
	for done := 0; done < len(nodes); done++ {
		if len(ready) == 0 {
			return nil, fmt.Errorf("baseline: dependency deadlock after %d blocks", done)
		}
		sort.Slice(ready, func(a, b int) bool {
			pa, pb := prio[nodes[ready[a]].b], prio[nodes[ready[b]].b]
			if pa != pb {
				return pa < pb
			}
			return ready[a] < ready[b]
		})
		i := ready[0]
		ready = ready[1:]
		n := &nodes[i]
		st := 0
		for _, d := range p.Stages[n.b.Stage].Devices {
			if devAvail[d] > st {
				st = devAvail[d]
			}
		}
		for _, pi := range n.preds {
			if nodes[pi].finish > st {
				st = nodes[pi].finish
			}
		}
		n.finish = st + p.Stages[n.b.Stage].Time
		for _, d := range p.Stages[n.b.Stage].Devices {
			devAvail[d] = n.finish
		}
		s.Add(n.b.Stage, n.b.Micro, st)
		for _, j := range succs[i] {
			nodes[j].predLeft--
			if nodes[j].predLeft == 0 {
				ready = append(ready, j)
			}
		}
	}
	s.Sort()
	return s, nil
}

// stageKinds splits a placement's per-device stages into forward and
// backward chains in topological order.
func stageChains(p *sched.Placement) (fwd, bwd [][]int, err error) {
	order, err := p.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	fwd = make([][]int, p.NumDevices)
	bwd = make([][]int, p.NumDevices)
	for _, i := range order {
		if len(p.Stages[i].Devices) != 1 {
			continue // tensor-parallel stages handled by the caller
		}
		d := p.Stages[i].Devices[0]
		if p.Stages[i].Kind == sched.Backward {
			bwd[d] = append(bwd[d], i)
		} else {
			fwd[d] = append(fwd[d], i)
		}
	}
	return fwd, bwd, nil
}

// OneFOneB generates the 1F1B schedule for a V-shape-style placement: device
// d runs min(D−d, n) warmup forwards, then strictly alternates one backward
// and one forward per micro-batch (Fan et al., DAPPLE; Narayanan et al.,
// PipeDream). It generalizes to any placement whose per-device stages form
// one forward and one backward group by treating each group as a unit.
func OneFOneB(p *sched.Placement, n int) (*sched.Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("baseline: need at least 1 micro-batch")
	}
	fwd, bwd, err := stageChains(p)
	if err != nil {
		return nil, err
	}
	for i := range p.Stages {
		if len(p.Stages[i].Devices) > 1 {
			return nil, fmt.Errorf("baseline: 1F1B does not support tensor-parallel stage %q; use OneFOneBPlus", p.Stages[i].Name)
		}
	}
	d := p.NumDevices
	prio := map[sched.Block]int{}
	next := 0
	assign := func(stage, micro int) {
		b := sched.Block{Stage: stage, Micro: micro}
		if _, ok := prio[b]; !ok {
			prio[b] = next
			next++
		}
	}
	emitFwdUnit := func(dev, micro int) {
		for _, i := range fwd[dev] {
			assign(i, micro)
		}
	}
	emitBwdUnit := func(dev, micro int) {
		for _, i := range bwd[dev] {
			assign(i, micro)
		}
	}
	// Step-by-step rounds so priorities interleave across devices the way
	// 1F1B does: min(D−d, n) warmup forwards, then alternate 1B/1F.
	maxSteps := 2*n + 2*d
	for step := 0; step < maxSteps; step++ {
		for dev := 0; dev < d; dev++ {
			warm := d - dev
			if warm > n {
				warm = n
			}
			if step < warm {
				emitFwdUnit(dev, step)
				continue
			}
			k := step - warm
			if k%2 == 0 {
				if b := k / 2; b < n {
					emitBwdUnit(dev, b)
				}
			} else {
				if f := warm + k/2; f < n {
					emitFwdUnit(dev, f)
				}
			}
		}
	}
	var blocks []sched.Block
	for st := 0; st < p.K(); st++ {
		for m := 0; m < n; m++ {
			blocks = append(blocks, sched.Block{Stage: st, Micro: m})
		}
	}
	for _, b := range blocks {
		if _, ok := prio[b]; !ok {
			prio[b] = next
			next++
		}
	}
	return dispatch(p, blocks, prio)
}

// OneFOneBPlus is the paper's 1F1B+ baseline: the 1F1B order manually
// adapted to placements where devices hold several stages and
// tensor-parallel blocks, with the distributed operators inserted
// immediately next to their neighboring operators (§VI-A). Two natural
// adaptations exist — treating each device's stages as one grouped unit, or
// treating every stage as a virtual pipeline stage (interleaved 1F1B) — and
// the generator returns whichever yields the smaller makespan, as a careful
// practitioner would.
func OneFOneBPlus(p *sched.Placement, n int) (*sched.Schedule, error) {
	a, errA := onePlusVirtual(p, n)
	b, errB := onePlusGrouped(p, n)
	switch {
	case errA != nil && errB != nil:
		return nil, errA
	case errA != nil:
		return b, nil
	case errB != nil:
		return a, nil
	case b.Makespan() < a.Makespan():
		return b, nil
	default:
		return a, nil
	}
}

// onePlusVirtual dispatches every single-device stage as a virtual pipeline
// stage: forward stage at chain position v processes micro-batch m at
// virtual time v + 3m, backward stage at position v' at F + 2v' + 3m.
func onePlusVirtual(p *sched.Placement, n int) (*sched.Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("baseline: need at least 1 micro-batch")
	}
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	// Chain positions of single-device stages, per kind, in topo order.
	fpos := map[int]int{}
	bpos := map[int]int{}
	for _, i := range order {
		if len(p.Stages[i].Devices) != 1 {
			continue
		}
		if p.Stages[i].Kind == sched.Backward {
			bpos[i] = len(bpos)
		} else {
			fpos[i] = len(fpos)
		}
	}
	f := len(fpos)
	// Virtual timing uses the placement's backward:forward time ratio r
	// (2 without recompute, 3 with): one micro-batch's steady-state stride
	// is 1+r virtual units. Scaled ×10 to leave room for TP insertion.
	fsum, bsum := 0, 0
	for i := range fpos {
		fsum += p.Stages[i].Time
	}
	for i := range bpos {
		bsum += p.Stages[i].Time
	}
	r := 2
	if len(fpos) > 0 && len(bpos) > 0 && fsum > 0 {
		r = (bsum*len(fpos) + fsum*len(bpos)/2) / (fsum * len(bpos))
		if r < 1 {
			r = 1
		}
	}
	stride := 1 + r
	virt := func(stage, micro int) (int, bool) {
		if v, ok := fpos[stage]; ok {
			return 10 * (v + stride*micro), true
		}
		if v, ok := bpos[stage]; ok {
			return 10*(f+r*v+stride*micro) + 5, true
		}
		return 0, false
	}
	prio := map[sched.Block]int{}
	for _, i := range order {
		for m := 0; m < n; m++ {
			if v, ok := virt(i, m); ok {
				prio[sched.Block{Stage: i, Micro: m}] = v
			}
		}
	}
	// TP stages: attach right before the first single-device successor or
	// right after the last single-device predecessor ("inserted the
	// distributed operators closely to their neighboring operators").
	for _, i := range order {
		if len(p.Stages[i].Devices) <= 1 {
			continue
		}
		for m := 0; m < n; m++ {
			b := sched.Block{Stage: i, Micro: m}
			anchored := false
			best := 0
			for _, j := range p.Succs(i) {
				if v, ok := virt(j, m); ok && (!anchored || v < best) {
					best, anchored = v, true
				}
			}
			if anchored {
				prio[b] = best - 1
				continue
			}
			for _, j := range p.Preds(i) {
				if v, ok := virt(j, m); ok && (!anchored || v > best) {
					best, anchored = v, true
				}
			}
			if anchored {
				prio[b] = best + 1
			} else if m > 0 {
				// TP-only chains: follow the same-stage previous micro.
				prio[b] = prio[sched.Block{Stage: i, Micro: m - 1}] + 30
			}
		}
	}
	var blocks []sched.Block
	for st := 0; st < p.K(); st++ {
		for m := 0; m < n; m++ {
			blocks = append(blocks, sched.Block{Stage: st, Micro: m})
		}
	}
	return dispatch(p, blocks, prio)
}

// onePlusGrouped dispatches each device's forward stages as one unit and
// backward stages as another, following the classic 1F1B warmup/alternate
// pattern, with tensor-parallel stages attached before the unit they feed
// or after the unit they consume.
func onePlusGrouped(p *sched.Placement, n int) (*sched.Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("baseline: need at least 1 micro-batch")
	}
	fwd, bwd, err := stageChains(p)
	if err != nil {
		return nil, err
	}
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	// Classify TP stages: those feeding same-kind single-device stages go
	// before the unit, the rest after.
	tpBefore := map[bool][]int{}
	tpAfter := map[bool][]int{}
	for _, i := range order {
		if len(p.Stages[i].Devices) <= 1 {
			continue
		}
		isBwd := p.Stages[i].Kind == sched.Backward
		feeds := false
		for _, j := range p.Succs(i) {
			if len(p.Stages[j].Devices) == 1 && (p.Stages[j].Kind == sched.Backward) == isBwd {
				feeds = true
				break
			}
		}
		if feeds {
			tpBefore[isBwd] = append(tpBefore[isBwd], i)
		} else {
			tpAfter[isBwd] = append(tpAfter[isBwd], i)
		}
	}
	d := p.NumDevices
	prio := map[sched.Block]int{}
	next := 0
	assign := func(stage, micro int) {
		b := sched.Block{Stage: stage, Micro: micro}
		if _, ok := prio[b]; !ok {
			prio[b] = next
			next++
		}
	}
	emitFwdUnit := func(dev, micro int) {
		for _, i := range tpBefore[false] {
			assign(i, micro)
		}
		for _, i := range fwd[dev] {
			assign(i, micro)
		}
		for _, i := range tpAfter[false] {
			assign(i, micro)
		}
	}
	emitBwdUnit := func(dev, micro int) {
		for _, i := range tpBefore[true] {
			assign(i, micro)
		}
		for _, i := range bwd[dev] {
			assign(i, micro)
		}
		for _, i := range tpAfter[true] {
			assign(i, micro)
		}
	}
	maxSteps := 2*n + 2*d
	for step := 0; step < maxSteps; step++ {
		for dev := 0; dev < d; dev++ {
			warm := d - dev
			if warm > n {
				warm = n
			}
			if step < warm {
				emitFwdUnit(dev, step)
				continue
			}
			k := step - warm
			if k%2 == 0 {
				if b := k / 2; b < n {
					emitBwdUnit(dev, b)
				}
			} else {
				if f := warm + k/2; f < n {
					emitFwdUnit(dev, f)
				}
			}
		}
	}
	var blocks []sched.Block
	for st := 0; st < p.K(); st++ {
		for m := 0; m < n; m++ {
			blocks = append(blocks, sched.Block{Stage: st, Micro: m})
		}
	}
	for _, b := range blocks {
		if _, ok := prio[b]; !ok {
			prio[b] = next
			next++
		}
	}
	return dispatch(p, blocks, prio)
}

// GPipe generates the GPipe schedule (Huang et al.): all forward
// micro-batches flush through the pipeline, then all backwards.
func GPipe(p *sched.Placement, n int) (*sched.Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("baseline: need at least 1 micro-batch")
	}
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	prio := map[sched.Block]int{}
	next := 0
	for _, phase := range []sched.Kind{sched.Forward, sched.Backward} {
		for m := 0; m < n; m++ {
			for _, i := range order {
				match := p.Stages[i].Kind == phase ||
					(phase == sched.Forward && p.Stages[i].Kind == sched.Aux)
				if match {
					prio[sched.Block{Stage: i, Micro: m}] = next
					next++
				}
			}
		}
	}
	var blocks []sched.Block
	for st := 0; st < p.K(); st++ {
		for m := 0; m < n; m++ {
			blocks = append(blocks, sched.Block{Stage: st, Micro: m})
		}
	}
	return dispatch(p, blocks, prio)
}

// ChimeraDirect generates the Chimera schedule (Li & Hoefler) for the
// X-shape placement with direct concatenation: micro-batches are grouped
// into waves of D/2 (one per half-pipeline slot), each wave is scheduled
// with the two directions' 1F1B patterns interleaved, and consecutive
// waves concatenate back-to-back. The rigid wave structure is what leaves
// Chimera-direct its characteristic steady-state bubble (Table II).
func ChimeraDirect(p *sched.Placement, n int) (*sched.Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("baseline: need at least 1 micro-batch")
	}
	fwd, bwd, err := stageChains(p)
	if err != nil {
		return nil, err
	}
	for i := range p.Stages {
		if len(p.Stages[i].Devices) > 1 {
			return nil, fmt.Errorf("baseline: chimera does not support tensor-parallel stage %q", p.Stages[i].Name)
		}
	}
	d := p.NumDevices
	for dev := 0; dev < d; dev++ {
		if len(fwd[dev]) < 2 || len(bwd[dev]) < 2 {
			return nil, fmt.Errorf("baseline: chimera needs bidirectional stages on device %d", dev)
		}
	}
	// A wave covers 2·D micro-batches: D half-batches per direction, one
	// basic Chimera scheduling unit per direction (calibrated to the ~20%
	// steady-state bubble Table II reports for Chimera-direct).
	wave := 2 * d
	return chimeraWavesChecked(p, n, wave, fwd, bwd)
}

func chimeraWavesChecked(p *sched.Placement, n, wave int, fwd, bwd [][]int) (*sched.Schedule, error) {
	d := p.NumDevices
	full := sched.NewSchedule(p)
	devReady := make([]int, d)
	for lo := 0; lo < n; lo += wave {
		hi := lo + wave
		if hi > n {
			hi = n
		}
		nw := hi - lo
		prio := map[sched.Block]int{}
		next := 0
		assign := func(stage, sub int) {
			b := sched.Block{Stage: stage, Micro: lo + sub}
			if _, ok := prio[b]; !ok {
				prio[b] = next
				next++
			}
		}
		maxSteps := 4*nw + 4*d
		for step := 0; step < maxSteps; step++ {
			for dev := 0; dev < d; dev++ {
				// Direction alternates per step; each direction follows its
				// own 1F1B with warmup depth given by its stage position.
				dir := step % 2
				sub := step / 2
				var f, b, depth int
				if dir == 0 {
					f, b = fwd[dev][0], bwd[dev][0] // down direction
					depth = d - dev
				} else {
					f, b = fwd[dev][1], bwd[dev][1] // up direction
					depth = dev + 1
				}
				warm := depth
				if warm > nw {
					warm = nw
				}
				if sub < warm {
					assign(f, sub)
					continue
				}
				k := sub - warm
				if k%2 == 0 {
					if bb := k / 2; bb < nw {
						assign(b, bb)
					}
				} else {
					if ff := warm + k/2; ff < nw {
						assign(f, ff)
					}
				}
			}
		}
		var blocks []sched.Block
		for st := 0; st < p.K(); st++ {
			for m := lo; m < hi; m++ {
				blocks = append(blocks, sched.Block{Stage: st, Micro: m})
			}
		}
		for _, b := range blocks {
			if _, ok := prio[b]; !ok {
				prio[b] = next
				next++
			}
		}
		ws, err := dispatchFrom(p, blocks, prio, devReady)
		if err != nil {
			return nil, err
		}
		for _, it := range ws.Items {
			for _, dev := range p.Stages[it.Stage].Devices {
				if f := it.Start + p.Stages[it.Stage].Time; f > devReady[dev] {
					devReady[dev] = f
				}
			}
		}
		full.Append(ws)
	}
	full.Sort()
	return full, nil
}

// Sequential runs micro-batches strictly one after another (no pipelining):
// the degenerate schedule with minimal memory and maximal bubble.
func Sequential(p *sched.Placement, n int) (*sched.Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("baseline: need at least 1 micro-batch")
	}
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	prio := map[sched.Block]int{}
	next := 0
	var blocks []sched.Block
	for m := 0; m < n; m++ {
		for _, i := range order {
			b := sched.Block{Stage: i, Micro: m}
			prio[b] = next
			next++
			blocks = append(blocks, b)
		}
	}
	return dispatch(p, blocks, prio)
}

// TensorParallelPlacement converts a placement into its pure tensor-parallel
// counterpart (the Fig. 15 inference baseline): every stage is sharded over
// all devices, dividing its time by the device count and multiplying by the
// overhead factor (kernel inefficiency of small per-device shards, expressed
// in percent ≥ 100). Stage memory is divided evenly.
func TensorParallelPlacement(p *sched.Placement, overheadPct int) *sched.Placement {
	if overheadPct < 100 {
		overheadPct = 100
	}
	q := &sched.Placement{Name: p.Name + "-tp", NumDevices: p.NumDevices}
	all := make([]sched.DeviceID, p.NumDevices)
	for i := range all {
		all[i] = sched.DeviceID(i)
	}
	for i := range p.Stages {
		st := p.Stages[i]
		t := (st.Time*overheadPct + 100*p.NumDevices - 1) / (100 * p.NumDevices)
		if t < 1 {
			t = 1
		}
		mem := st.Mem / p.NumDevices
		q.Stages = append(q.Stages, sched.Stage{
			Name: st.Name, Kind: st.Kind, Time: t, Mem: mem, Devices: all,
		})
	}
	q.Deps = make([][]int, len(p.Deps))
	for i, succs := range p.Deps {
		q.Deps[i] = append([]int(nil), succs...)
	}
	return q
}

// SteadyBubble estimates the steady-state bubble rate of a schedule by
// measuring device idle time over the middle half of its makespan, which
// excludes warmup and cooldown — the "numerous micro-batches" regime of
// Table II.
func SteadyBubble(s *sched.Schedule) float64 {
	ms := s.Makespan()
	lo, hi := ms/4, ms-ms/4
	if hi <= lo {
		return s.OverallBubbleRate()
	}
	return s.BubbleRate(lo, hi)
}
