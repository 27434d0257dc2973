package core

import (
	"slices"
	"sync/atomic"

	"tessel/internal/sched"
	"tessel/internal/solver"
)

// The completion template of a Result: the phase solves its completions
// have run, each stored as the solver instance it answered and the solution
// it got. A repetend's warmup does not depend on N at all, and its cooldown
// at N+1 is, once the body is long enough to hide the warmup, the cooldown
// at N one micro-batch and one period later — so after the first completion
// an Extend to any other N finds both of its solves here and only unrolls
// and composes (§III-C: O(N·K) copying, no search).
//
// Nothing rests on that observation. A memo is keyed by the whole solver
// instance, normalized so that two instances share a key only if one is the
// other moved in time and in micro-batch index; an instance that is not
// stored is solved, and stored. Moving an instance moves its feasible
// schedules with it, so a replayed solution is as feasible and as good on
// the instance it is replayed for as on the one it was found for, whatever
// the solver would have done; and the solver is itself indifferent to both
// moves — it compares times with times and micro indices with micro indices,
// and reads neither alone — which is what makes a replay byte-identical to a
// fresh solve (template_test.go holds it to that on every catalog shape).
// completeSchedule validates every composed schedule either way.

// maxTemplateSolves bounds the memos one Result keeps; the oldest goes
// first. A result needs its warmup, a cooldown or two, and one whole-problem
// solve per N below N_R (at most 7 under DefaultMaxNR).
const maxTemplateSolves = 16

// phaseMemo is one solved phase. The key fields hold the solver's input
// normalized: micro indices relative to the first task's, times relative to
// the earliest moment any device is free (base). A release before base
// cannot bind — every start waits for its device — so it is stored as base.
type phaseMemo struct {
	blocks  []sched.Block // task order; Micro relative to blocks[0]
	release []int         // per task: max(Release − base, 0)
	ready   []int         // DeviceReady − base; nil when every device starts idle
	initMem []int
	memory  int
	nodes   int64 // the node budget the solve was proven optimal within
	starts  []int // the solution, per task, relative to base
	// truncated marks a solution the node budget cut short: not proven
	// optimal, but what this instance gets under this budget every time.
	truncated bool
}

// template is the memo list of one Result. The list is immutable once
// published: a store swaps in a new one, so concurrent Extends of a shared
// Result read it without a lock.
type template struct {
	memos atomic.Pointer[[]*phaseMemo]
}

func timeBase(deviceReady []int) int {
	if len(deviceReady) == 0 {
		return 0
	}
	return slices.Min(deviceReady)
}

// matches reports whether the instance — blocks in solver task order, their
// release times, and the solver options — is the one m holds.
func (m *phaseMemo) matches(blocks []sched.Block, releases map[sched.Block]int, o solver.Options, base int) bool {
	if len(blocks) != len(m.blocks) || len(o.DeviceReady) != len(m.ready) || o.Memory != m.memory ||
		o.MaxNodes != m.nodes || !slices.Equal(o.InitialMem, m.initMem) {
		return false
	}
	for d, r := range o.DeviceReady {
		if r-base != m.ready[d] {
			return false
		}
	}
	micro := blocks[0].Micro
	for i, b := range blocks {
		if b.Stage != m.blocks[i].Stage || b.Micro-micro != m.blocks[i].Micro || max(releases[b]-base, 0) != m.release[i] {
			return false
		}
	}
	return true
}

// lookup returns the stored solution of an instance, or nil when the
// instance has not been solved. Its start times are relative to base and are
// the template's own: read them, do not write them.
func (t *template) lookup(blocks []sched.Block, releases map[sched.Block]int, o solver.Options) (m *phaseMemo, base int) {
	list := t.memos.Load()
	if list == nil {
		return nil, 0
	}
	base = timeBase(o.DeviceReady)
	for _, m := range *list {
		if m.matches(blocks, releases, o, base) {
			return m, base
		}
	}
	return nil, 0
}

// store publishes the solution of an instance. It must be one the instance
// determines — proven optimal, or cut short by the node budget (truncated).
// A solve cut short by the wall-clock budget is not: its bytes depend on the
// machine's speed that day.
func (t *template) store(blocks []sched.Block, releases map[sched.Block]int, o solver.Options, starts []int, truncated bool) {
	base := timeBase(o.DeviceReady)
	m := &phaseMemo{
		blocks:    make([]sched.Block, len(blocks)),
		release:   make([]int, len(blocks)),
		initMem:   slices.Clone(o.InitialMem),
		memory:    o.Memory,
		nodes:     o.MaxNodes,
		starts:    make([]int, len(blocks)),
		truncated: truncated,
	}
	for i, b := range blocks {
		m.blocks[i] = sched.Block{Stage: b.Stage, Micro: b.Micro - blocks[0].Micro}
		m.release[i] = max(releases[b]-base, 0)
		m.starts[i] = starts[i] - base
	}
	for _, r := range o.DeviceReady {
		m.ready = append(m.ready, r-base)
	}
	for {
		old := t.memos.Load()
		list := []*phaseMemo{m}
		if old != nil {
			for _, e := range *old {
				if e.matches(blocks, releases, o, base) {
					return // a concurrent completion solved the same instance
				}
			}
			list = append(list, (*old)[:min(len(*old), maxTemplateSolves-1)]...)
		}
		if t.memos.CompareAndSwap(old, &list) {
			return
		}
	}
}
