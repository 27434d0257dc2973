package schedcheck

import (
	"strings"
	"testing"

	"tessel/internal/sched"
)

// pipeline is two stages on two devices, forward then backward, each
// backward freeing what its forward took.
func pipeline() *sched.Placement {
	return &sched.Placement{
		Name:       "two",
		NumDevices: 2,
		Stages: []sched.Stage{
			{Name: "f", Kind: sched.Forward, Time: 2, Mem: 1, Devices: []sched.DeviceID{0}},
			{Name: "b", Kind: sched.Backward, Time: 3, Mem: -1, Devices: []sched.DeviceID{0, 1}},
		},
		Deps: [][]int{{1}, nil},
	}
}

// TestCheck accepts a valid two-micro-batch schedule and refuses each
// single edit that breaks one constraint of Equation 1 or the block set.
func TestCheck(t *testing.T) {
	valid := func() *sched.Schedule {
		s := &sched.Schedule{P: pipeline()}
		s.Add(0, 0, 0)
		s.Add(0, 1, 2)
		s.Add(1, 0, 4)
		s.Add(1, 1, 7)
		return s
	}
	if err := Check(valid(), 2, 2); err != nil {
		t.Fatalf("valid schedule refused: %v", err)
	}
	for _, c := range []struct {
		name   string
		edit   func(*sched.Schedule)
		memory int
		want   string
	}{
		{"overlap", func(s *sched.Schedule) { s.Items[1].Start = 1 }, 2, "busy"},
		{"memory", func(*sched.Schedule) {}, 1, "holds"},
		{"dependency", func(s *sched.Schedule) { s.P.Stages[1].Devices = []sched.DeviceID{1}; s.Items[2].Start = 1 }, 2, "predecessor"},
		{"predecessor after", func(s *sched.Schedule) { s.Items[1].Start = 20 }, 2, "predecessor"},
		{"twice", func(s *sched.Schedule) { s.Items[3].Micro = 0 }, 2, "twice"},
		{"missing", func(s *sched.Schedule) { s.Items = s.Items[:3] }, 2, "blocks scheduled"},
		{"out of range", func(s *sched.Schedule) { s.Items[3].Micro = 2 }, 2, "not one of"},
	} {
		s := valid()
		c.edit(s)
		if err := Check(s, 2, c.memory); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error about %q", c.name, err, c.want)
		}
	}
}
