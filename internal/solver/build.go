package solver

import (
	"fmt"
	"sort"

	"tessel/internal/sched"
)

// BuildTasks converts a set of blocks of a placement into solver tasks.
// Dependencies are the placement's stage edges restricted to pairs of blocks
// in the set with equal micro-batch index (cross-micro-batch blocks are
// independent, Equation 2). The optional releases map supplies earliest
// start times for blocks whose predecessors were scheduled in an earlier
// phase. Task order is deterministic: sorted by (micro, stage).
func BuildTasks(p *sched.Placement, blocks []sched.Block, releases map[sched.Block]int) ([]Task, error) {
	if p == nil {
		return nil, fmt.Errorf("nil placement")
	}
	sorted := append([]sched.Block(nil), blocks...)
	//tessel:totalorder (Micro, Stage) is unique per block (duplicates are rejected below)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Micro != sorted[j].Micro {
			return sorted[i].Micro < sorted[j].Micro
		}
		return sorted[i].Stage < sorted[j].Stage
	})
	index := make(map[sched.Block]int, len(sorted))
	for i, b := range sorted {
		if b.Stage < 0 || b.Stage >= p.K() {
			return nil, fmt.Errorf("block %v: stage out of range", b)
		}
		if _, dup := index[b]; dup {
			return nil, fmt.Errorf("block %v appears twice", b)
		}
		index[b] = i
	}
	preds := p.PredTable()
	tasks := make([]Task, len(sorted))
	for i, b := range sorted {
		st := &p.Stages[b.Stage]
		t := Task{
			ID:      b,
			Time:    st.Time,
			Mem:     st.Mem,
			Devices: st.Devices,
		}
		for _, ps := range preds[b.Stage] {
			if j, ok := index[sched.Block{Stage: ps, Micro: b.Micro}]; ok {
				t.Preds = append(t.Preds, j)
			}
		}
		if releases != nil {
			t.Release = releases[b]
		}
		tasks[i] = t
	}
	return tasks, nil
}

// AllBlocks returns every block of n micro-batches of placement p, ordered
// by (micro, stage). Convenience for whole-problem (time-optimal) solves.
func AllBlocks(p *sched.Placement, n int) []sched.Block {
	blocks := make([]sched.Block, 0, n*p.K())
	for m := 0; m < n; m++ {
		for st := 0; st < p.K(); st++ {
			blocks = append(blocks, sched.Block{Stage: st, Micro: m})
		}
	}
	return blocks
}
