// Package schedcheck is a second, independent reading of Equation 1 for
// tests to hold composed schedules to. It shares no code with
// sched.Schedule.Validate: it replays the items as events in start order,
// keeps each device's busy-until time and live memory as it goes, and finds
// blocks and their finish times in plain maps. It is slower than Validate on
// purpose — there is nothing in it to get wrong the same way.
package schedcheck

import (
	"fmt"
	"sort"

	"tessel/internal/sched"
)

// Check returns nil when s schedules every block of n micro-batches exactly
// once, no device runs two blocks at a time, no device's live memory exceeds
// memory (sched.Unbounded: no cap) at any moment, and every block starts no
// earlier than each of its predecessors in the same micro-batch finishes.
// Memory starts at zero and changes at block starts; at a moment τ it counts
// every block that started before τ, so blocks that start together are
// added together before the cap is checked.
func Check(s *sched.Schedule, n, memory int) error {
	p := s.P
	seen := map[sched.Block]bool{}
	for _, it := range s.Items {
		if it.Stage < 0 || it.Stage >= len(p.Stages) || it.Micro < 0 || it.Micro >= n {
			return fmt.Errorf("block %v is not one of %d micro-batches of %d stages", it.Block, n, len(p.Stages))
		}
		if seen[it.Block] {
			return fmt.Errorf("block %v scheduled twice", it.Block)
		}
		seen[it.Block] = true
	}
	if len(seen) != n*len(p.Stages) {
		return fmt.Errorf("%d blocks scheduled, want %d", len(seen), n*len(p.Stages))
	}
	preds := make([][]int, len(p.Stages))
	for i, succs := range p.Deps {
		for _, j := range succs {
			preds[j] = append(preds[j], i)
		}
	}

	events := append([]sched.Item(nil), s.Items...)
	sort.Slice(events, func(a, b int) bool { return events[a].Start < events[b].Start })
	busy := map[sched.DeviceID]int{}
	live := map[sched.DeviceID]int{}
	finish := map[sched.Block]int{}
	for lo := 0; lo < len(events); {
		hi := lo
		for hi < len(events) && events[hi].Start == events[lo].Start {
			hi++
		}
		now := events[lo:hi]
		for _, it := range now {
			st := p.Stages[it.Stage]
			for _, d := range st.Devices {
				if until, ok := busy[d]; ok && it.Start < until {
					return fmt.Errorf("device %d still busy until t=%d when %v starts at t=%d", d, until, it.Block, it.Start)
				}
				busy[d] = it.Start + st.Time
				live[d] += st.Mem
			}
			finish[it.Block] = it.Start + st.Time
		}
		for _, it := range now {
			for _, d := range p.Stages[it.Stage].Devices {
				if memory != sched.Unbounded && live[d] > memory {
					return fmt.Errorf("device %d holds %d > %d from t=%d on", d, live[d], memory, it.Start)
				}
			}
			for _, i := range preds[it.Stage] {
				pred := sched.Block{Stage: i, Micro: it.Micro}
				if f, ok := finish[pred]; !ok || f > it.Start {
					return fmt.Errorf("%v starts at t=%d before its predecessor %v finishes", it.Block, it.Start, pred)
				}
			}
		}
		lo = hi
	}
	return nil
}
