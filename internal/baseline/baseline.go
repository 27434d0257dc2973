// Package baseline implements the predefined schedules Tessel is compared
// against in §VI-A of the paper: 1F1B (Fan et al., the default schedule of
// Megatron-style V-shape pipelines), GPipe, Chimera-direct (bidirectional
// X-shape), 1F1B+ (1F1B manually adapted to advanced placements by inserting
// the distributed operators next to their neighboring operators), and pure
// tensor parallelism for inference.
//
// The 1F1B family shares one step rule (oneFOneBStep): 1F1B is 1F1B+'s
// grouped form on placements without tensor-parallel stages, and
// Chimera-direct runs the rule once per direction. Every generator only
// orders blocks; one list scheduler (dispatch) turns the order into start
// times.
//
// All generators produce sched.Schedule values over the same block model the
// Tessel search uses, so bubble rates and simulated runtimes are directly
// comparable.
package baseline

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"tessel/internal/sched"
)

// prioTable is a dispatch priority per block. add numbers blocks first come,
// first served, so the order a generator adds blocks in is their priority.
type prioTable map[sched.Block]int

func (t prioTable) add(stage, micro int) {
	b := sched.Block{Stage: stage, Micro: micro}
	if _, ok := t[b]; !ok {
		t[b] = len(t)
	}
}

// dispatch performs deterministic list scheduling of micro-batches lo..hi−1
// with a fixed priority per block: at every step, among blocks whose
// predecessors have finished, the lowest-priority block starts at its
// earliest feasible time. Blocks the generator left out of prio are numbered
// after the rest, stage by stage; ties break on the same stage-major order,
// so the produced schedule is deterministic. Dependencies are always
// honored, which lets a mildly inconsistent cross-device order degrade into
// waiting instead of deadlock. devReady, if not nil, is each device's
// initial availability (ChimeraDirect concatenates waves).
func dispatch(p *sched.Placement, lo, hi int, prio prioTable, devReady []int) (*sched.Schedule, error) {
	w := hi - lo
	var blocks []sched.Block
	for st := 0; st < p.K(); st++ {
		for m := lo; m < hi; m++ {
			blocks = append(blocks, sched.Block{Stage: st, Micro: m})
			prio.add(st, m)
		}
	}
	predTable := p.PredTable()
	predLeft := make([]int, len(blocks))
	finish := make([]int, len(blocks))
	succs := make([][]int, len(blocks))
	var ready []int
	for i, b := range blocks {
		for _, ps := range predTable[b.Stage] {
			j := ps*w + b.Micro - lo
			predLeft[i]++
			succs[j] = append(succs[j], i)
		}
		if predLeft[i] == 0 {
			ready = append(ready, i)
		}
	}
	devAvail := make([]int, p.NumDevices)
	copy(devAvail, devReady)
	s := sched.NewSchedule(p)
	for done := 0; done < len(blocks); done++ {
		if len(ready) == 0 {
			return nil, fmt.Errorf("baseline: dependency deadlock after %d blocks", done)
		}
		sort.Slice(ready, func(a, b int) bool {
			pa, pb := prio[blocks[ready[a]]], prio[blocks[ready[b]]]
			return pa < pb || pa == pb && ready[a] < ready[b]
		})
		i := ready[0]
		ready = ready[1:]
		b, stage := blocks[i], &p.Stages[blocks[i].Stage]
		st := 0
		for _, d := range stage.Devices {
			st = max(st, devAvail[d])
		}
		for _, ps := range predTable[b.Stage] {
			st = max(st, finish[ps*w+b.Micro-lo])
		}
		finish[i] = st + stage.Time
		for _, d := range stage.Devices {
			devAvail[d] = finish[i]
		}
		s.Add(b.Stage, b.Micro, st)
		for _, j := range succs[i] {
			if predLeft[j]--; predLeft[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	s.Sort()
	return s, nil
}

// topo checks the micro-batch count and returns p's topological order.
func topo(p *sched.Placement, n int) ([]int, error) {
	if n <= 0 {
		return nil, errors.New("baseline: need at least 1 micro-batch")
	}
	return p.TopoOrder()
}

// dir is 1 for a backward stage and 0 for a forward or auxiliary one.
func dir(p *sched.Placement, i int) int {
	if p.Stages[i].Kind == sched.Backward {
		return 1
	}
	return 0
}

// stageChains splits a placement's single-device stages into per-device
// forward (chains[0]) and backward (chains[1]) chains in topological order.
func stageChains(p *sched.Placement, order []int) (chains [2][][]int) {
	chains = [2][][]int{make([][]int, p.NumDevices), make([][]int, p.NumDevices)}
	for _, i := range order {
		if len(p.Stages[i].Devices) == 1 {
			d, k := p.Stages[i].Devices[0], dir(p, i)
			chains[k][d] = append(chains[k][d], i)
		}
	}
	return chains
}

// rejectTP returns an error naming p's first tensor-parallel stage, if any.
func rejectTP(p *sched.Placement, format string) error {
	for i := range p.Stages {
		if len(p.Stages[i].Devices) > 1 {
			return fmt.Errorf("baseline: "+format, p.Stages[i].Name)
		}
	}
	return nil
}

// oneFOneBStep is 1F1B's step rule (Fan et al., DAPPLE; Narayanan et al.,
// PipeDream) for a device with warm warmup forwards over n micro-batches: at
// step k it runs forward k while k < min(warm, n), then alternates one
// backward and one forward. It returns the micro-batch and its direction
// (1 backward, 0 forward); ok is false when the device has nothing to run
// at step k.
func oneFOneBStep(k, warm, n int) (m, bwd int, ok bool) {
	warm = min(warm, n)
	if k < warm {
		return k, 0, true
	}
	if k -= warm; k%2 == 0 {
		return k / 2, 1, k/2 < n
	}
	return warm + k/2, 0, warm+k/2 < n
}

// OneFOneB generates the 1F1B schedule for a V-shape-style placement: device
// d runs min(D−d, n) warmup forwards, then strictly alternates one backward
// and one forward per micro-batch. It generalizes to any placement whose
// per-device stages form one forward and one backward group by treating
// each group as a unit — 1F1B+'s grouped form on a placement without
// tensor-parallel stages.
func OneFOneB(p *sched.Placement, n int) (*sched.Schedule, error) {
	if n > 0 {
		if err := rejectTP(p, "1F1B does not support tensor-parallel stage %q; use OneFOneBPlus"); err != nil {
			return nil, err
		}
	}
	return onePlusGrouped(p, n)
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
	order, err := topo(p, n)
	if err != nil {
		return nil, err
	}
	// Chain positions of single-device stages, per direction, in topo order.
	pos := [2]map[int]int{{}, {}}
	for _, i := range order {
		if len(p.Stages[i].Devices) == 1 {
			pos[dir(p, i)][i] = len(pos[dir(p, i)])
		}
	}
	fpos, bpos := pos[0], pos[1]
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
		r = max(1, (bsum*len(fpos)+fsum*len(bpos)/2)/(fsum*len(bpos)))
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
	prio := prioTable{}
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
			switch {
			case anchored:
				prio[b] = best + 1
			case m > 0:
				// TP-only chains: follow the same-stage previous micro.
				prio[b] = prio[sched.Block{Stage: i, Micro: m - 1}] + 30
			default:
				prio[b] = 0
			}
		}
	}
	return dispatch(p, 0, n, prio, nil)
}

// onePlusGrouped dispatches each device's forward stages as one unit and
// backward stages as another, following the 1F1B step rule, with
// tensor-parallel stages attached before the unit they feed or after the
// unit they consume.
func onePlusGrouped(p *sched.Placement, n int) (*sched.Schedule, error) {
	order, err := topo(p, n)
	if err != nil {
		return nil, err
	}
	chains := stageChains(p, order)
	// TP stages feeding same-direction single-device stages go before the
	// unit, the rest after.
	var before, after [2][]int
	for _, i := range order {
		if len(p.Stages[i].Devices) <= 1 {
			continue
		}
		k := dir(p, i)
		if slices.ContainsFunc(p.Succs(i), func(j int) bool { return len(p.Stages[j].Devices) == 1 && dir(p, j) == k }) {
			before[k] = append(before[k], i)
		} else {
			after[k] = append(after[k], i)
		}
	}
	d := p.NumDevices
	prio := prioTable{}
	for k := 0; k < 2*n+2*d; k++ {
		for dev := 0; dev < d; dev++ {
			if m, b, ok := oneFOneBStep(k, d-dev, n); ok {
				for _, unit := range [][]int{before[b], chains[b][dev], after[b]} {
					for _, i := range unit {
						prio.add(i, m)
					}
				}
			}
		}
	}
	return dispatch(p, 0, n, prio, nil)
}

// GPipe generates the GPipe schedule (Huang et al.): all forward
// micro-batches flush through the pipeline, then all backwards.
func GPipe(p *sched.Placement, n int) (*sched.Schedule, error) {
	order, err := topo(p, n)
	if err != nil {
		return nil, err
	}
	prio := prioTable{}
	for k := range 2 {
		for m := 0; m < n; m++ {
			for _, i := range order {
				if dir(p, i) == k {
					prio.add(i, m)
				}
			}
		}
	}
	return dispatch(p, 0, n, prio, nil)
}

// ChimeraDirect generates the Chimera schedule (Li & Hoefler) for the
// X-shape placement with direct concatenation: micro-batches are grouped
// into waves of D/2 (one per half-pipeline slot), each wave is scheduled
// with the two directions' 1F1B patterns interleaved, and consecutive
// waves concatenate back-to-back. The rigid wave structure is what leaves
// Chimera-direct its characteristic steady-state bubble (Table II).
func ChimeraDirect(p *sched.Placement, n int) (*sched.Schedule, error) {
	order, err := topo(p, n)
	if err != nil {
		return nil, err
	}
	if err := rejectTP(p, "chimera does not support tensor-parallel stage %q"); err != nil {
		return nil, err
	}
	chains := stageChains(p, order)
	d := p.NumDevices
	for dev := 0; dev < d; dev++ {
		if len(chains[0][dev]) < 2 || len(chains[1][dev]) < 2 {
			return nil, fmt.Errorf("baseline: chimera needs bidirectional stages on device %d", dev)
		}
	}
	// A wave covers 2·D micro-batches: D half-batches per direction, one
	// basic Chimera scheduling unit per direction (calibrated to the ~20%
	// steady-state bubble Table II reports for Chimera-direct).
	wave := 2 * d
	full := sched.NewSchedule(p)
	devReady := make([]int, d)
	for lo := 0; lo < n; lo += wave {
		nw := min(wave, n-lo)
		prio := prioTable{}
		for k := 0; k < 2*nw+2*d; k++ {
			// Each step runs the down direction (a device's first stage
			// pair, warmup depth D−dev), then the up one (its second pair,
			// depth dev+1), each by its own 1F1B step rule.
			for up := range 2 {
				for dev := 0; dev < d; dev++ {
					depth := d - dev
					if up == 1 {
						depth = dev + 1
					}
					if m, b, ok := oneFOneBStep(k, depth, nw); ok {
						prio.add(chains[b][dev][up], lo+m)
					}
				}
			}
		}
		ws, err := dispatch(p, lo, lo+nw, prio, devReady)
		if err != nil {
			return nil, err
		}
		for _, it := range ws.Items {
			for _, dev := range p.Stages[it.Stage].Devices {
				devReady[dev] = max(devReady[dev], it.Start+p.Stages[it.Stage].Time)
			}
		}
		full.Items = append(full.Items, ws.Items...)
	}
	full.Sort()
	return full, nil
}

// Sequential runs micro-batches strictly one after another (no pipelining):
// the degenerate schedule with minimal memory and maximal bubble.
func Sequential(p *sched.Placement, n int) (*sched.Schedule, error) {
	order, err := topo(p, n)
	if err != nil {
		return nil, err
	}
	prio := prioTable{}
	for m := 0; m < n; m++ {
		for _, i := range order {
			prio.add(i, m)
		}
	}
	return dispatch(p, 0, n, prio, nil)
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
