package main

import (
	"context"
	"regexp"
	"strconv"
	"testing"
	"time"

	"tessel"
)

// TestCatalog searches every instance in-process, the way the server would,
// and holds the result to the catalog's golden values.
func TestCatalog(t *testing.T) {
	for i := range catalog {
		in := &catalog[i]
		t.Run(in.name, func(t *testing.T) {
			p, err := in.placement(in.name)
			if err != nil {
				t.Fatal(err)
			}
			if lb := p.LowerBound(); lb != in.lb {
				t.Errorf("Placement.LowerBound() = %d, catalog says %d", lb, in.lb)
			}
			opts := tessel.SearchOptions{N: hotWarmN, Memory: in.memory, SolverTimeout: 10 * time.Second}
			var prints [2]string
			for round := range prints {
				res, err := tessel.SearchContext(context.Background(), p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Truncated {
					t.Error("search was truncated")
				}
				if res.Repetend.Period > in.period {
					t.Errorf("period %d is above the golden %d", res.Repetend.Period, in.period)
				}
				if res.Repetend.Period < in.lb {
					t.Errorf("period %d is below the lower bound %d", res.Repetend.Period, in.lb)
				}
				if err := res.Full.Validate(tessel.ValidateOptions{Memory: in.validateMemory()}); err != nil {
					t.Errorf("invalid schedule: %v", err)
				}
				if got, want := len(res.Full.Items), hotWarmN*p.K(); got != want {
					t.Errorf("schedule has %d blocks, want %d", got, want)
				}
				if res.Full.Makespan() != res.Makespan {
					t.Errorf("schedule makespan %d, result declares %d", res.Full.Makespan(), res.Makespan)
				}
				prints[round] = tessel.FingerprintSchedule(res.Full)
			}
			if prints[0] != prints[1] {
				t.Error("two searches of the same instance returned different schedules")
			}
		})
	}
}

// TestCatalogNames holds every entry to the naming scheme the README
// documents: shape, devices, "i" for inference, "mK" for options.memory.
func TestCatalogNames(t *testing.T) {
	re := regexp.MustCompile(`^(v|x|m|k|nn)(\d+)(i?)(?:m(\d+))?$`)
	seen := map[string]bool{}
	for _, in := range catalog {
		m := re.FindStringSubmatch(in.name)
		if m == nil {
			t.Errorf("%s: name does not follow the scheme", in.name)
			continue
		}
		if seen[in.name] {
			t.Errorf("%s: listed twice", in.name)
		}
		seen[in.name] = true
		p, err := in.placement(in.name)
		if err != nil {
			t.Fatal(err)
		}
		mem, _ := strconv.Atoi(m[4])
		if devices, _ := strconv.Atoi(m[2]); devices != in.devices || p.NumDevices != devices || (m[3] == "i") != in.inference || mem != in.memory {
			t.Errorf("%s: name disagrees with the entry %+v", in.name, in)
		}
	}
}

// TestGoldenClosedForms checks golden periods against values known without
// running the search: 1F1B reaches zero steady-state bubble on an unbounded
// V-shape, so its period is the per-device work fwd + bwd = 3 (1 for the
// inference variant), and no period is below the device-work lower bound.
func TestGoldenClosedForms(t *testing.T) {
	for _, in := range catalog {
		if in.period < in.lb {
			t.Errorf("%s: golden period %d below the lower bound %d", in.name, in.period, in.lb)
		}
	}
	for name, want := range map[string]int{"v4": 3, "v6": 3, "v4i": 1} {
		if in := lookup(name); in.period != want || in.lb != want {
			t.Errorf("%s: golden period %d, lower bound %d, closed form says %d", name, in.period, in.lb, want)
		}
	}
	for _, wl := range workloads {
		for _, name := range wl.instances {
			lookup(name) // panics on a workload naming an instance the catalog lacks
		}
	}
}
