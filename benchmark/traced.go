package main

// The traced run: the per-layer table. It is separate from the timed run,
// whose numbers always come from an untraced window. Against one warmed
// server it measures the workload once without and once with span
// recording (the difference is the tracing overhead), times the serve paths
// one by one over HTTP, and then hands the traced requests to the layer
// probe, which replays them in-process under the same request ids and times
// each layer's public functions alone.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// traceSegments is how many untraced and how many traced segments the
// traced run alternates; together they last half a window.
const traceSegments = 4

// replayLimit is how many traced requests the layer probe replays: two
// passes of a cold workload, a few hundred requests of a cached one.
func (wl *workload) replayLimit() int {
	if wl.kind == kindCold {
		return 2 * wl.block
	}
	return 300
}

// probePlan and probeOutput are the layer probe's input and output; JSON is
// the contract between the two programs (see layerprobe/main.go).
type probePlan struct {
	Instances []probeInstance `json:"instances"`
	Replay    []probeRequest  `json:"replay"`
}

type probeInstance struct {
	Name      string          `json:"name"`
	Placement json.RawMessage `json:"placement"`
	Memory    int             `json:"memory"`
	NR        int             `json:"nr"`
	Cold      bool            `json:"cold"`
}

type probeRequest struct {
	ID    string `json:"id"`
	Body  []byte `json:"body"`
	Trace bool   `json:"trace"`
}

type probeOutput struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

// probePlan is the layer probe's input for one traced run: the catalog, the
// warm-up (so the probe's engine starts from the cache state the server's
// was in; a cold workload has no state to reproduce) and the first traced
// requests. It also returns the ids of the requests to be replayed.
func (wl *workload) probePlan(warm, traced []sample) (*probePlan, map[string]bool, error) {
	plan := &probePlan{}
	for i := range catalog {
		in := &catalog[i]
		pj, err := in.placementJSON(in.name)
		if err != nil {
			return nil, nil, err
		}
		plan.Instances = append(plan.Instances, probeInstance{Name: in.name, Placement: pj, Memory: in.memory, NR: in.nr, Cold: in.cold})
	}
	if wl.kind != kindCold {
		for i := range warm {
			plan.Replay = append(plan.Replay, probeRequest{ID: warm[i].req.id, Body: warm[i].req.body})
		}
	}
	replayed := map[string]bool{}
	for i := 0; i < len(traced) && i < wl.replayLimit(); i++ {
		plan.Replay = append(plan.Replay, probeRequest{ID: traced[i].req.id, Body: traced[i].req.body, Trace: true})
		replayed[traced[i].req.id] = true
	}
	return plan, replayed, nil
}

// tracedRun measures the workload's per-layer metrics and returns them with
// the spans of the replayed requests.
func (b *bench) tracedRun(ctx context.Context, wl *workload) (*runResult, []span, error) {
	calib := []float64{calibrate()}
	st, err := b.setUp(ctx, wl)
	if err != nil {
		return nil, nil, err
	}
	defer st.srv.stop()

	stats0, err := st.srv.stats()
	if err != nil {
		return nil, nil, err
	}
	// Untraced and traced segments alternate, so a slow spell of the
	// machine falls on both sides of the overhead comparison.
	var untraced, traced []sample
	var untracedTime, tracedTime time.Duration
	for seg := 0; seg < 2*traceSegments; seg++ {
		on := seg%2 == 1
		for _, c := range st.clients {
			c.trace = on
		}
		start := time.Now()
		samples, err := phase(ctx, st.srv, wl, st.clients, 0, b.window/(4*traceSegments))
		if err != nil {
			return nil, nil, err
		}
		if on {
			traced, tracedTime = append(traced, samples...), tracedTime+time.Since(start)
		} else {
			untraced, untracedTime = append(untraced, samples...), untracedTime+time.Since(start)
		}
	}
	stats1, err := st.srv.stats()
	if err != nil {
		return nil, nil, err
	}
	var httpTrace []span
	for _, c := range st.clients {
		httpTrace = append(httpTrace, c.spans...)
	}

	all := append(append([]sample(nil), untraced...), traced...)
	res := summarize(wl, all, st.clients)
	m := map[string]float64{}
	workloadCounters(m, all, stats0, stats1)
	m["solver.workers_effective"] = float64(stats1.SolverWorkersEffective)
	r0, r1 := float64(len(untraced))/untracedTime.Seconds(), float64(len(traced))/tracedTime.Seconds()
	m["trace.overhead_pct"] = 100 * (r0 - r1) / r0
	if m["serve.peak_rss_mb"], err = st.srv.memoryMB("VmHWM"); err != nil {
		return nil, nil, err
	}
	if err := servePaths(ctx, st.srv, b.seed, m); err != nil {
		return nil, nil, err
	}
	st.srv.stop()

	plan, replayed, err := wl.probePlan(st.warm, traced)
	if err != nil {
		return nil, nil, err
	}
	out, err := b.runProbe(ctx, plan)
	if err != nil {
		return nil, nil, err
	}
	for name, v := range out.Metrics {
		m[name] = v
	}
	m["serve.self_ms.cold"] = m["serve.cold_ms.m4"] - m["inproc.cold_ms"]
	m["serve.self_ms.hit"] = m["serve.hit_ms"] - m["inproc.hit_ms"]
	m["serve.self_ms.hit_extend"] = m["serve.hit_extend_ms.n16"] - m["inproc.hit_extend_ms"]

	var spans []span
	for _, s := range httpTrace {
		if replayed[s.RequestID] {
			spans = append(spans, s)
		}
	}
	spans = append(spans, out.Spans...)
	layerBudget(m, spans)

	calib = append(calib, calibrate())
	res.CalibMS = median(calib)
	m["machine.calib_ms"] = res.CalibMS
	m["machine.cores"] = float64(runtime.NumCPU())
	m["machine.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	res.Metrics = map[string]metricValue{}
	for _, def := range perLayer {
		v, ok := m[def.name]
		if !ok {
			return nil, nil, fmt.Errorf("traced run of %s produced no %s", wl.name, def.name)
		}
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	return res, spans, nil
}

// workloadCounters fills the metrics counted over the traced run's two
// windows: the server's /v1/stats deltas, and the search effort the
// responses report, averaged over the requests that ran a search.
func workloadCounters(m map[string]float64, samples []sample, s0, s1 serverStats) {
	hits, misses, shared := float64(s1.Hits-s0.Hits), float64(s1.Misses-s0.Misses), float64(s1.Shared-s0.Shared)
	m["engine.hits"], m["engine.misses"], m["engine.shared"] = hits, misses, shared
	m["engine.evictions"] = float64(s1.Evictions - s0.Evictions)
	if total := hits + misses + shared; total > 0 {
		m["engine.hit_ratio"] = hits / total
	}
	m["admit.admitted"] = float64(s1.Admitted - s0.Admitted)
	m["admit.queued"] = float64(s1.Queued - s0.Queued)
	m["admit.shed"] = float64(s1.Shed - s0.Shed)

	var searched, non200, reqBytes, respBytes float64
	sums := map[string]float64{}
	for i := range samples {
		s := &samples[i]
		reqBytes += float64(len(s.req.body))
		respBytes += float64(s.respBytes)
		if s.status != 200 {
			non200++
		}
		if !s.ok || s.header.CacheHit || s.header.Shared {
			continue
		}
		searched++
		st := &s.header.Stats
		sums["core.assignments"] += float64(st.Assignments)
		sums["core.solved"] += float64(st.Solved)
		sums["core.pruned"] += float64(st.Pruned)
		sums["core.nr_swept"] += float64(st.NRSwept)
		sums["repetend.period_probes"] += float64(st.PeriodProbes)
		sums["repetend.period_relaxations"] += float64(st.PeriodRelaxations)
		sums["repetend.local_search_swaps"] += float64(st.LocalSearchSwaps)
		sums["solver.nodes_per_search"] += float64(st.SolverNodes)
	}
	for _, name := range []string{"core.assignments", "core.solved", "core.pruned", "core.nr_swept", "repetend.period_probes", "repetend.period_relaxations", "repetend.local_search_swaps", "solver.nodes_per_search"} {
		m[name] = 0
		if searched > 0 {
			m[name] = sums[name] / searched
		}
	}
	m["core.prune_ratio"] = 0
	if a := sums["core.assignments"]; a > 0 {
		m["core.prune_ratio"] = sums["core.pruned"] / a
	}
	m["serve.non200"] = non200
	m["serve.req_bytes"] = reqBytes / float64(len(samples))
	m["serve.resp_bytes_per_req"] = respBytes / float64(len(samples))
}

// servePaths times the three serve paths one request at a time over HTTP:
// a cold search of each of the nine cold instances, the exact-n cache hit,
// and the hit that extends to another n.
func servePaths(ctx context.Context, srv *server, seed int64, m map[string]float64) error {
	// A workload with no serve path of its own, so the per-response check
	// accepts hits and misses alike; path checks the one it expects.
	any := &workload{name: "serve_paths", kind: kindZipf}
	c := newClient(any, seed, 0)
	origin := time.Now()
	path := func(inst *instance, pname string, n, reps int, wantHit bool) (float64, error) {
		var lat []float64
		for i := 0; i < reps; i++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			name := pname
			if name == "" {
				name = fmt.Sprintf("%s-paths-s%d-%d", inst.name, seed, i)
			}
			body, err := inst.requestBody(name, n)
			if err != nil {
				return 0, err
			}
			smp := c.do(srv, any, &request{id: "serve_paths/" + name, inst: inst, n: n, body: body}, origin)
			if !smp.ok {
				return 0, fmt.Errorf("serve path probe failed: %s", c.failures[len(c.failures)-1])
			}
			if smp.header.CacheHit != wantHit {
				return 0, fmt.Errorf("serve path probe %s n=%d: cache_hit=%v, want %v", name, n, smp.header.CacheHit, wantHit)
			}
			lat = append(lat, ms(smp.end-smp.start))
		}
		return median(lat), nil
	}
	var err error
	for _, name := range coldInstances {
		if m["serve.cold_ms."+name], err = path(lookup(name), "", hotWarmN, 5, false); err != nil {
			return err
		}
	}
	m4 := lookup("m4")
	cached := fmt.Sprintf("m4-paths-s%d-cached", seed)
	if _, err = path(m4, cached, hotWarmN, 1, false); err != nil {
		return err
	}
	if m["serve.hit_ms"], err = path(m4, cached, hotWarmN, 101, true); err != nil {
		return err
	}
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		if m[fmt.Sprintf("serve.hit_extend_ms.n%d", n)], err = path(m4, cached, n, 31, true); err != nil {
			return err
		}
	}
	return nil
}

// runProbe writes the plan, runs the layer probe on it and decodes its
// output.
func (b *bench) runProbe(ctx context.Context, plan *probePlan) (*probeOutput, error) {
	data, err := json.Marshal(plan)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(b.out, "layerplan.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, b.probeBin, path)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	var out probeOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decode layer probe output: %w", err)
	}
	return &out, nil
}

// layerBudget splits the median HTTP latency of the replayed requests over
// the layers. Per request, serve is what HTTP adds over the in-process
// replay plus the replay's own JSON work, sched/engine/core are the replay
// spans' self times; the layers of one request sum to its HTTP latency, so
// the ratio of the summed layer medians to the HTTP median says how far
// the medians of a mixed workload are from additive.
func layerBudget(m map[string]float64, spans []span) {
	type parts struct{ http, replay, json, sched, engine, core float64 }
	byReq := map[string]*parts{}
	at := func(id string) *parts {
		if byReq[id] == nil {
			byReq[id] = &parts{}
		}
		return byReq[id]
	}
	children := map[string]float64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] += s.durMS()
		}
	}
	for _, s := range spans {
		p := at(s.RequestID)
		switch s.Name {
		case "http.roundtrip", "http.read_body":
			p.http += s.durMS()
		case "replay":
			p.replay = s.durMS()
		case "json.request", "json.envelope":
			p.json += s.durMS()
		case "sched.decode_placement", "sched.fingerprint", "sched.encode_schedule":
			p.sched += s.durMS()
		case "core.search", "core.extend":
			p.core += s.durMS()
		case "engine.serve":
			if self := s.durMS() - children[s.ID]; self > 0 {
				p.engine = self
			}
		}
	}
	var http, serve, sched, engine, core []float64
	for _, p := range byReq {
		if p.replay == 0 || p.http == 0 {
			continue
		}
		http = append(http, p.http)
		serve = append(serve, p.http-p.replay+p.json)
		sched = append(sched, p.sched)
		engine = append(engine, p.engine)
		core = append(core, p.core)
	}
	m["trace.http_ms"] = median(http)
	m["trace.self_ms.serve"] = median(serve)
	m["trace.self_ms.sched"] = median(sched)
	m["trace.self_ms.engine"] = median(engine)
	m["trace.self_ms.core"] = median(core)
	m["trace.layer_sum_ratio"] = 0
	if h := median(http); h > 0 {
		m["trace.layer_sum_ratio"] = (median(serve) + median(sched) + median(engine) + median(core)) / h
	}
}
