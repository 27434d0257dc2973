package sched

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// ReferenceValidate is Validate as it was before the one-pass walk: every
// device's items copied into a list of their own and each list walked twice,
// duplicates and dependencies looked up in the hashed blockIndex. The
// differential tests (validate_test.go and FuzzDecodeSchedule) hold Validate's
// verdict to this one's.
func ReferenceValidate(s *Schedule, opts ValidateOptions) error {
	if s.P == nil {
		return errReference
	}
	per := s.deviceItems()
	for _, items := range per {
		for i := 1; i < len(items); i++ {
			prev, cur := items[i-1], items[i]
			if cur.Start < prev.Start+s.P.Stages[prev.Stage].Time {
				return errReference
			}
		}
	}
	if opts.Memory != Unbounded {
		for d, items := range per {
			mem := 0
			if opts.InitialMem != nil {
				mem = opts.InitialMem[d]
			}
			if mem > opts.Memory {
				return errReference
			}
			for _, it := range items {
				mem += s.P.Stages[it.Stage].Mem
				if mem > opts.Memory {
					return errReference
				}
			}
		}
	}
	index := newBlockIndex(s.Items, s.P.K())
	for i := range s.Items {
		if _, dup := index.add(i); dup {
			return errReference
		}
	}
	for _, it := range s.Items {
		for _, succ := range s.P.Deps[it.Stage] {
			if dep, ok := index.find(Block{Stage: succ, Micro: it.Micro}); ok && it.Start+s.P.Stages[it.Stage].Time > dep.Start {
				return errReference
			}
		}
	}
	return nil
}

// add indexes items[pos], as Validate does. If an earlier item schedules the
// same block it returns that item and true instead.
func (x blockIndex) add(pos int) (Item, bool) {
	i := x.probe(x.items[pos].Block)
	if at := x.slots[i]; at != 0 {
		return x.items[at-1], true
	}
	x.slots[i] = int32(pos + 1)
	return Item{}, false
}

// find returns the item that schedules b, as Validate looks it up.
func (x blockIndex) find(b Block) (Item, bool) {
	if at := x.slots[x.probe(b)]; at != 0 {
		return x.items[at-1], true
	}
	return Item{}, false
}

var errReference = errors.New("invalid under the reference")

// TestValidateShortInitialMemory: an InitialMem shorter than the device count
// is an error, not an index out of range.
func TestValidateShortInitialMemory(t *testing.T) {
	s := sequentialSchedule(chain4(), 2)
	for _, mem := range []int{1, Unbounded} {
		if err := s.Validate(ValidateOptions{Memory: mem, InitialMem: []int{0, 0}}); err == nil || !strings.Contains(err.Error(), "initial memory") {
			t.Errorf("memory %d, InitialMem for 2 of 4 devices: err %v", mem, err)
		}
	}
	if err := s.Validate(ValidateOptions{Memory: 1, InitialMem: []int{0, 0, 0, 0, 9}}); err != nil {
		t.Errorf("InitialMem with a fifth entry for 4 devices: %v", err)
	}
}

// TestDecodeItemsRefusesWrappedFinish: a block that starts after math.MaxInt −
// MaxStageTime may end past math.MaxInt. Its finish time wraps negative, so a successor at t = 0
// reads as scheduled after it and Validate, which cannot see the wrap, would
// pass the schedule; DecodeItems refuses the start instead.
func TestDecodeItemsRefusesWrappedFinish(t *testing.T) {
	p := &Placement{Name: "chain2", NumDevices: 1, Deps: [][]int{{1}, nil}, Stages: []Stage{
		{Name: "f", Kind: Forward, Time: 2, Devices: []DeviceID{0}},
		{Name: "b", Kind: Backward, Time: 2, Devices: []DeviceID{0}},
	}}
	if _, err := DecodeItems(p, []ItemJSON{{Stage: 0, Start: math.MaxInt - 1}, {Stage: 1, Start: 0}}); err == nil {
		t.Fatal("a stage-0 start of MaxInt−1 before a stage-1 start of 0 decoded")
	}
	const last = math.MaxInt - MaxStageTime
	if _, err := DecodeItems(p, []ItemJSON{{Stage: 0, Start: last + 1}}); err == nil {
		t.Fatal("a start of math.MaxInt − MaxStageTime + 1 decoded")
	}
	s, err := DecodeItems(p, []ItemJSON{{Stage: 0, Start: last - 2}, {Stage: 1, Start: last}})
	if err != nil {
		t.Fatalf("starts up to math.MaxInt − MaxStageTime: %v", err)
	}
	if err := s.Validate(ValidateOptions{Memory: Unbounded}); err != nil || s.Makespan() != last+2 {
		t.Fatalf("chain ending at math.MaxInt − MaxStageTime + 2: makespan %d, err %v", s.Makespan(), err)
	}
}
