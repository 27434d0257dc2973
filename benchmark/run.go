package main

// One benchmark run: set the server up, measure a workload over a window,
// verify what came back, and turn the samples into the named metrics.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// metricValue is one reported number. IQR and Samples are filled where the
// metric is a statistic over a distribution measured within the run.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	IQR     float64 `json:"iqr,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Verified  int                    `json:"verified_bodies"`
	CalibMS   float64                `json:"calib_ms"`
	Metrics   map[string]metricValue `json:"metrics"`
	Failures  []string               `json:"failures,omitempty"`
}

// bench is one invocation's settings: what to run against and for how long.
type bench struct {
	paths
	serverBin string // `tessel`, built from the checkout
	probeBin  string // the layer probe; "" when no traced run is made
	seed      int64
	window    time.Duration
	// setups is how many times a timed run sets the server up; setup_s is
	// the median, and the window is measured on the last one.
	setups int
}

// setup is a started, warmed server with the clients that warmed it.
type setup struct {
	srv     *server
	clients []*client
	warm    []sample // the warm-up requests in completion order, primers first
	elapsed time.Duration
}

// setUp starts the server and brings it to the state the window measures
// from: exec → first 200 on /readyz → warm-up done. A failed warm-up
// request is an error, not a data point.
func (b *bench) setUp(ctx context.Context, wl *workload) (*setup, error) {
	start := time.Now()
	srv, err := startServer(ctx, b.serverBin, wl.clients)
	if err != nil {
		return nil, err
	}
	st := &setup{srv: srv}
	for i := 0; i < wl.clients; i++ {
		st.clients = append(st.clients, newClient(wl, b.seed, i))
	}
	fail := func(err error) (*setup, error) {
		srv.stop()
		return nil, err
	}
	primers, err := wl.primers()
	if err != nil {
		return fail(err)
	}
	for _, req := range primers {
		st.warm = append(st.warm, st.clients[0].do(srv, wl, req, start))
	}
	warm, err := phase(ctx, srv, wl, st.clients, wl.warm, 0)
	if err != nil {
		return fail(err)
	}
	st.warm = append(st.warm, warm...)
	for _, c := range st.clients {
		if len(c.failures) > 0 {
			return fail(fmt.Errorf("warm-up of %s failed: %s", wl.name, c.failures[0]))
		}
	}
	st.elapsed = time.Since(start)
	return st, nil
}

// timedRun measures the workload's end-to-end metrics, untraced.
func (b *bench) timedRun(ctx context.Context, wl *workload) (*runResult, error) {
	calib := []float64{calibrate()}
	var st *setup
	var setups []float64
	for i := 0; i < b.setups; i++ {
		if st != nil {
			st.srv.stop()
		}
		var err error
		if st, err = b.setUp(ctx, wl); err != nil {
			return nil, err
		}
		setups = append(setups, st.elapsed.Seconds())
	}
	defer st.srv.stop()

	cpu0, err := st.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	stopRSS := st.srv.sampleRSS(50 * time.Millisecond)
	samples, err := phase(ctx, st.srv, wl, st.clients, 0, b.window)
	rss := stopRSS()
	if err != nil {
		return nil, err
	}
	cpu1, err := st.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	if len(rss) == 0 {
		return nil, fmt.Errorf("no VmRSS sample of the server during the window")
	}
	calib = append(calib, calibrate())

	res := summarize(wl, samples, st.clients)
	res.CalibMS = median(calib)
	res.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", IQR: iqr(setups), Samples: len(setups)}
	res.Metrics["server_cpu_ms_per_req"] = metricValue{Value: ms(cpu1-cpu0) / float64(len(samples)), Unit: "ms"}
	res.Metrics["server_rss_mb"] = metricValue{Value: median(rss), Unit: "MB", IQR: iqr(rss), Samples: len(rss)}
	return res, nil
}

// summarize verifies the held-back bodies and computes the metrics that
// come from the samples alone.
func summarize(wl *workload, samples []sample, clients []*client) *runResult {
	res := &runResult{Workload: wl.name, Attempted: len(samples), Metrics: map[string]metricValue{}}
	for _, c := range clients {
		res.Failures = append(res.Failures, c.failures...)
	}
	res.Failed = len(res.Failures)
	var vfail []string
	res.Verified, vfail = verifyKept(clients)
	res.Failed += len(vfail)
	res.Failures = append(res.Failures, vfail...)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if len(res.Failures) > 10 {
		res.Failures = res.Failures[:10]
	}

	var lat []float64
	var ends []time.Duration
	period := map[string]int{}
	for i := range samples {
		s := &samples[i]
		if !s.ok {
			continue
		}
		lat = append(lat, ms(s.end-s.start))
		ends = append(ends, s.end)
		if s.header.Period > period[s.req.inst.name] {
			period[s.req.inst.name] = s.header.Period
		}
	}
	rates := blockRates(ends, wl.block)
	sort.Float64s(lat)
	res.Metrics["throughput_rps"] = metricValue{Value: median(rates), Unit: "1/s", IQR: iqr(rates), Samples: len(rates)}
	res.Metrics["latency_p50_ms"] = metricValue{Value: percentile(lat, 50), Unit: "ms", Samples: len(lat)}
	res.Metrics["latency_p95_ms"] = metricValue{Value: percentile(lat, 95), Unit: "ms", Samples: len(lat)}

	// Schedule quality: period over the device-work lower bound, once per
	// distinct instance, so the value does not depend on how many requests
	// the window happened to fit.
	var ratios []float64
	for name, p := range period {
		ratios = append(ratios, float64(p)/float64(lookup(name).lb))
	}
	sort.Float64s(ratios) // map order must not reach the floating-point sum
	res.Metrics["period_over_lb_geomean"] = metricValue{Value: geomean(ratios), Unit: "ratio", Samples: len(ratios)}
	return res
}

// calibrate times a fixed integer loop, in ms. It is the benchmark's view
// of how fast this machine is right now: two result sets whose calibration
// differs by more than 5% are unresolved, not different.
func calibrate() float64 {
	var runs []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		var sum uint64
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sum += x
		}
		runtime.KeepAlive(sum)
		runs = append(runs, ms(time.Since(start)))
	}
	return median(runs)
}
