package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkJSON is BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSON keeps BENCHMARK.json and the benchmark's own tables in
// step: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if b.Workloads[i].Name != wl.name || b.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", wl.name, len(wl.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark has %d", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the benchmark %+v", kind, i, g, def)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != def.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v", kind, def.name, def.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	hasSetup := false
	for _, def := range endToEnd {
		hasSetup = hasSetup || (def.name == "setup_s" && def.unit == "s" && def.better == "lower")
		if def.bound > 0.25 {
			t.Errorf("%s: bound %v is above the driver's limit of 0.25", def.name, def.bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke builds the server and the layer probe and runs every workload
// for a second against the real `tessel serve`: every end-to-end metric of
// every workload, and every per-layer metric of one traced run, must come
// out once, finite, with no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	b := &bench{paths: paths{root: "..", out: t.TempDir()}, seed: 1, window: time.Second, setups: 1}
	var err error
	if b.serverBin, err = b.buildBinary(ctx, "./cmd/tessel", "tessel"); err != nil {
		t.Fatal(err)
	}
	if b.probeBin, err = b.buildBinary(ctx, "./benchmark/layerprobe", "layerprobe"); err != nil {
		t.Fatal(err)
	}
	finite := func(r *runResult, defs []metricDef) {
		t.Helper()
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Failures)
		}
		for _, def := range defs {
			v, ok := r.Metrics[def.name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != def.unit {
				t.Errorf("%s: metric %s = %+v (present: %v)", r.Workload, def.name, v, ok)
			}
		}
	}
	for i := range workloads {
		wl := &workloads[i]
		res, err := b.timedRun(ctx, wl)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		finite(res, endToEnd)
		for _, def := range endToEnd {
			if res.Metrics[def.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, def.name, res.Metrics[def.name].Value)
			}
		}
	}
	res, spans, err := b.tracedRun(ctx, findWorkload("hot_extend"))
	if err != nil {
		t.Fatal(err)
	}
	finite(res, perLayer)
	if res.Metrics["engine.misses"].Value != 0 || res.Metrics["admit.shed"].Value != 0 {
		t.Errorf("hot_extend: engine.misses = %v, admit.shed = %v, want 0", res.Metrics["engine.misses"].Value, res.Metrics["admit.shed"].Value)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	for _, want := range []string{"request", "http.roundtrip", "http.read_body", "verify", "replay", "sched.decode_placement", "engine.serve", "sched.encode_schedule", "json.envelope", "sched.fingerprint", "core.extend"} {
		if !names[want] {
			t.Errorf("traced run recorded no %s span", want)
		}
	}
}
