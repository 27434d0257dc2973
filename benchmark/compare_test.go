package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.10}
	quality := metricDef{name: "period_over_lb_geomean", unit: "ratio", better: "lower", bound: 0.001}
	v := func(x, iqr float64) metricValue { return metricValue{Value: x, IQR: iqr} }
	cases := []struct {
		name      string
		def       metricDef
		base, cur metricValue
		calibCur  float64
		want      verdict
	}{
		{"within the bound", lower, v(10, 0), v(10.9, 0), 100, verdictOK},
		{"better", lower, v(10, 0), v(5, 0), 100, verdictOK},
		{"beyond the bound", lower, v(10, 0), v(11.5, 0), 100, verdictRegressed},
		{"higher is better, dropped", higher, v(100, 0), v(85, 0), 100, verdictRegressed},
		{"higher is better, rose", higher, v(100, 0), v(130, 0), 100, verdictOK},
		{"machine calibration drifted", lower, v(10, 0), v(11.5, 0), 108, verdictUnresolved},
		{"spread as large as the excess", higher, v(100, 8), v(85, 8), 100, verdictUnresolved},
		{"spread smaller than the excess", higher, v(100, 2), v(80, 2), 100, verdictRegressed},
		{"schedule quality ignores machine drift", quality, v(1.0, 0), v(1.1, 0), 150, verdictRegressed},
		{"no base value", lower, v(0, 0), v(1, 0), 100, verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := judge(c.def, c.base, c.cur, 100, c.calibCur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	file := func(p50 float64, failed int) *resultFile {
		f := &resultFile{Commit: "abc", Workloads: map[string]*workloadResult{}}
		for _, wl := range workloads {
			r := &runResult{Workload: wl.name, Attempted: 100, Failed: failed, CalibMS: 40, Metrics: map[string]metricValue{}}
			for _, def := range endToEnd {
				r.Metrics[def.name] = metricValue{Value: 10, Unit: def.unit}
			}
			r.Metrics["latency_p50_ms"] = metricValue{Value: p50, Unit: "ms"}
			f.Workloads[wl.name] = &workloadResult{EndToEnd: r}
		}
		return f
	}
	var out bytes.Buffer
	if compareResults(&out, file(10, 0), file(10.5, 0)) {
		t.Errorf("a 5%% change regressed:\n%s", out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 2+len(workloads)*len(endToEnd) {
		t.Errorf("table has %d lines, want a header and one row per workload and metric:\n%s", rows, out.String())
	}
	out.Reset()
	if !compareResults(&out, file(10, 0), file(20, 0)) || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a median twice as slow did not regress:\n%s", out.String())
	}
	out.Reset()
	if !compareResults(&out, file(10, 0), file(10, 3)) {
		t.Errorf("more failed operations did not regress:\n%s", out.String())
	}
}
