// Command layerprobe times the layers behind `tessel serve` one at a time,
// in-process, by calling their public functions on inputs the benchmark
// hands it, and replays the benchmark's traced requests through the same
// layers under the same request ids.
//
// It is a program of its own, built and run by the benchmark only for the
// traced run, because it is the one part that imports tessel/internal/...:
// the end-to-end measurement depends on nothing but the HTTP wire format
// and the tessel facade, and keeps working across a refactor that moves
// these packages.
//
//	layerprobe plan.json   → one JSON object on standard output
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"time"

	"tessel/internal/admit"
	"tessel/internal/core"
	"tessel/internal/engine"
	"tessel/internal/peer"
	"tessel/internal/repetend"
	"tessel/internal/sched"
	"tessel/internal/solver"
)

// plan is the probe's input, written by the benchmark.
type plan struct {
	// Instances are the catalog instances the layer table times.
	Instances []planInstance `json:"instances"`
	// Replay is the traced run's request sequence, in order. Requests not
	// marked Trace only bring the in-process engine's cache to the state
	// the server's was in.
	Replay []planRequest `json:"replay"`
}

type planInstance struct {
	Name      string          `json:"name"`
	Placement json.RawMessage `json:"placement"`
	Memory    int             `json:"memory"`
	NR        int             `json:"nr"`
	Cold      bool            `json:"cold"` // one of the nine instances timed one by one
}

type planRequest struct {
	ID    string `json:"id"`
	Body  []byte `json:"body"`
	Trace bool   `json:"trace"`
}

// span mirrors the benchmark's span type; JSON is the contract between the
// two programs.
type span struct {
	ID        string  `json:"id"`
	Name      string  `json:"name"`
	StartUS   float64 `json:"start_us"`
	EndUS     float64 `json:"end_us"`
	Parent    string  `json:"parent,omitempty"`
	RequestID string  `json:"request_id"`
	Sibling   bool    `json:"sibling,omitempty"`
}

type output struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

// serveSolverTimeout is `tessel serve`'s default -solver-timeout, which the
// handler puts into every request's options (and so into the cache key).
const serveSolverTimeout = 10 * time.Second

// serveEngineOptions are `tessel serve`'s default flags.
var serveEngineOptions = engine.Options{
	CacheSize:             engine.DefaultCacheSize,
	MaxConcurrentSearches: 2,
	MaxQueuedSearches:     64,
	QueueWait:             5 * time.Second,
	TenantBurst:           4,
	PeerFetchBudget:       2 * time.Second,
	Logf:                  func(string, ...any) {},
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: layerprobe plan.json")
		os.Exit(2)
	}
	//tessel:waive:ctxflow layerprobe is a main program; this is the root context, cancelled on Ctrl-C
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "layerprobe:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var pl plan
	if err := json.Unmarshal(data, &pl); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	pr := &probe{ctx: ctx, metrics: map[string]float64{}, inst: map[string]*probeInstance{}}
	for _, pi := range pl.Instances {
		p, err := sched.DecodePlacement(bytes.NewReader(pi.Placement))
		if err != nil {
			return fmt.Errorf("instance %s: %w", pi.Name, err)
		}
		pr.inst[pi.Name] = &probeInstance{planInstance: pi, p: p}
	}
	for _, step := range []func() error{pr.replay(pl.Replay), pr.schedLayer, pr.coreLayer, pr.engineLayer, pr.serveInProcess, pr.admitLayer, pr.peerLayer, pr.repetendLayer, pr.solverLayer} {
		if err := step(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(output{Metrics: pr.metrics, Spans: pr.spans})
}

type probeInstance struct {
	planInstance
	p *sched.Placement
}

type probe struct {
	ctx     context.Context
	inst    map[string]*probeInstance
	metrics map[string]float64
	spans   []span
}

func (pr *probe) instance(name string) (*probeInstance, error) {
	in := pr.inst[name]
	if in == nil {
		return nil, fmt.Errorf("plan has no instance %s", name)
	}
	return in, nil
}

func (in *probeInstance) options(n int) core.Options {
	return core.Options{N: n, Memory: in.Memory, SolverTimeout: serveSolverTimeout}
}

// renamed is the instance's placement under another name: a different
// fingerprint, the same search.
func (in *probeInstance) renamed(name string) *sched.Placement {
	p := in.p.Clone()
	p.Name = name
	return p
}

// medianOf times fn reps times and returns the median.
func medianOf(reps int, fn func() error) (time.Duration, error) {
	d := make([]time.Duration, reps)
	for i := range d {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = time.Since(t0)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[reps/2], nil
}

// medianPerOp times batches of ops calls of fn and returns the median
// per-call time, for calls too short to time one by one.
func medianPerOp(batches, ops int, fn func() error) (time.Duration, error) {
	d, err := medianOf(batches, func() error {
		for i := 0; i < ops; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	})
	return d / time.Duration(ops), err
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- wire format of /v1/search, mirrored so the in-process path pays the
// same decoding and encoding the handler does.

type wireRequest struct {
	Placement json.RawMessage `json:"placement"`
	Options   struct {
		N      int `json:"n"`
		Memory int `json:"memory"`
	} `json:"options"`
}

type wireResponse struct {
	Fingerprint string          `json:"fingerprint"`
	CacheHit    bool            `json:"cache_hit"`
	Shared      bool            `json:"shared"`
	Degraded    bool            `json:"degraded"`
	PeerHit     bool            `json:"peer_hit"`
	N           int             `json:"n"`
	Makespan    int             `json:"makespan"`
	LowerBound  int             `json:"lower_bound"`
	Period      int             `json:"period"`
	NR          int             `json:"nr"`
	Assignment  []int           `json:"assignment"`
	BubbleRate  float64         `json:"bubble_rate"`
	Stats       core.Stats      `json:"stats"`
	Schedule    json.RawMessage `json:"schedule"`
}

// served is what one in-process pass through the serving layers produced.
type served struct {
	p    *sched.Placement
	opts core.Options
	res  *core.Result
	info engine.CacheInfo
	// at are the layer boundaries: request decoded, placement decoded,
	// engine returned, schedule encoded, envelope encoded.
	at [6]time.Time
}

// serve takes one request body through the layers the handler calls, in
// the handler's order.
func (pr *probe) serve(eng *engine.Engine, body []byte, sink *bytes.Buffer) (*served, error) {
	var sv served
	sv.at[0] = time.Now()
	var req wireRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	sv.at[1] = time.Now()
	p, err := sched.DecodePlacement(bytes.NewReader(req.Placement))
	if err != nil {
		return nil, err
	}
	sv.at[2] = time.Now()
	sv.p = p
	sv.opts = core.Options{N: req.Options.N, Memory: req.Options.Memory, SolverTimeout: serveSolverTimeout}
	sv.res, sv.info, err = eng.Serve(pr.ctx, engine.Request{Placement: p, Options: sv.opts})
	if err != nil {
		return nil, err
	}
	sv.at[3] = time.Now()
	var schedBuf bytes.Buffer
	if err := sched.EncodeSchedule(&schedBuf, sv.res.Full); err != nil {
		return nil, err
	}
	sv.at[4] = time.Now()
	resp := wireResponse{
		Fingerprint: sv.info.Fingerprint, CacheHit: sv.info.Hit, Shared: sv.info.Shared,
		N: sv.res.N, Makespan: sv.res.Makespan, LowerBound: sv.res.LowerBound, BubbleRate: sv.res.BubbleRate,
		Period: sv.res.Repetend.Period, NR: sv.res.Repetend.NR, Assignment: []int(sv.res.Repetend.Assign),
		Stats: sv.res.Stats, Schedule: schedBuf.Bytes(),
	}
	sink.Reset()
	enc := json.NewEncoder(sink)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	sv.at[5] = time.Now()
	return &sv, nil
}

// replay runs the traced requests through the layers and records their
// spans. Each request's root span "replay" has the layer calls as children;
// engine.serve in turn gets sibling spans that re-run, on the same input,
// the work it delegates (the placement fingerprint, and core.Search on a
// miss or core.Extend on a hit at another n), so engine.serve's self time
// is what the engine itself adds.
func (pr *probe) replay(reqs []planRequest) func() error {
	return func() error {
		eng := engine.New(serveEngineOptions)
		origin := time.Now()
		us := func(t time.Time) float64 { return float64(t.Sub(origin)) / float64(time.Microsecond) }
		// base is, per cache identity, the result the engine cached on its
		// latest miss: what a hit at another n is extended from.
		base := map[string]*core.Result{}
		var sink bytes.Buffer
		for _, rq := range reqs {
			if err := pr.ctx.Err(); err != nil {
				return err
			}
			sv, err := pr.serve(eng, rq.Body, &sink)
			if err != nil {
				return fmt.Errorf("replay %s: %w", rq.ID, err)
			}
			identity := fmt.Sprintf("%s|%d", sv.info.Fingerprint, sv.opts.Memory)
			if !sv.info.Hit {
				base[identity] = sv.res
			}
			if !rq.Trace {
				continue
			}
			root := rq.ID + "@replay"
			add := func(name string, from, to time.Time, parent string, sibling bool) string {
				id := rq.ID + "@" + name
				pr.spans = append(pr.spans, span{ID: id, Name: name, StartUS: us(from), EndUS: us(to), Parent: parent, RequestID: rq.ID, Sibling: sibling})
				return id
			}
			add("replay", sv.at[0], sv.at[5], "", false)
			add("json.request", sv.at[0], sv.at[1], root, false)
			add("sched.decode_placement", sv.at[1], sv.at[2], root, false)
			serveID := add("engine.serve", sv.at[2], sv.at[3], root, false)
			add("sched.encode_schedule", sv.at[3], sv.at[4], root, false)
			add("json.envelope", sv.at[4], sv.at[5], root, false)

			t0 := time.Now()
			sched.Fingerprint(sv.p)
			add("sched.fingerprint", t0, time.Now(), serveID, true)
			switch cached := base[identity]; {
			case !sv.info.Hit:
				t0 = time.Now()
				if _, err := core.Search(pr.ctx, sv.p, sv.opts); err != nil {
					return fmt.Errorf("replay %s: sibling search: %w", rq.ID, err)
				}
				add("core.search", t0, time.Now(), serveID, true)
			case cached != nil && cached.N != sv.opts.N:
				t0 = time.Now()
				if _, err := core.Extend(pr.ctx, cached, sv.opts.N, sv.opts); err != nil {
					return fmt.Errorf("replay %s: sibling extend: %w", rq.ID, err)
				}
				add("core.extend", t0, time.Now(), serveID, true)
			}
		}
		return nil
	}
}

func (pr *probe) schedLayer() error {
	in, err := pr.instance("m4")
	if err != nil {
		return err
	}
	d, err := medianPerOp(21, 50, func() error {
		_, err := sched.DecodePlacement(bytes.NewReader(in.Placement))
		return err
	})
	if err != nil {
		return err
	}
	pr.metrics["sched.decode_placement_us"] = usOf(d)
	d, _ = medianPerOp(21, 200, func() error { sched.Fingerprint(in.p); return nil })
	pr.metrics["sched.fingerprint_us"] = usOf(d)

	res, err := core.Search(pr.ctx, in.p, in.options(256))
	if err != nil {
		return err
	}
	kblocks := float64(len(res.Full.Items)) / 1000
	var buf bytes.Buffer
	d, err = medianOf(15, func() error {
		buf.Reset()
		return sched.EncodeSchedule(&buf, res.Full)
	})
	if err != nil {
		return err
	}
	pr.metrics["sched.encode_schedule_us_per_kblock"] = usOf(d) / kblocks
	d, err = medianOf(15, func() error {
		return res.Full.Validate(sched.ValidateOptions{Memory: sched.Unbounded})
	})
	if err != nil {
		return err
	}
	pr.metrics["sched.validate_us_per_kblock"] = usOf(d) / kblocks
	return nil
}

func (pr *probe) coreLayer() error {
	for _, in := range pr.inst {
		if !in.Cold {
			continue
		}
		in := in
		var last *core.Result
		d, err := medianOf(3, func() error {
			var err error
			last, err = core.Search(pr.ctx, in.p, in.options(12))
			return err
		})
		if err != nil {
			return fmt.Errorf("core.Search %s: %w", in.Name, err)
		}
		pr.metrics["core.search_ms."+in.Name] = msOf(d)
		if in.Name == "m4" {
			ph := last.Stats.Phase
			if total := float64(ph.Warmup + ph.Repetend + ph.Cooldown); total > 0 {
				pr.metrics["core.phase_share.warmup"] = float64(ph.Warmup) / total
				pr.metrics["core.phase_share.repetend"] = float64(ph.Repetend) / total
				pr.metrics["core.phase_share.cooldown"] = float64(ph.Cooldown) / total
			}
			for _, n := range []int{16, 64, 256} {
				n := n
				d, err := medianOf(15, func() error {
					_, err := core.Extend(pr.ctx, last, n, in.options(n))
					return err
				})
				if err != nil {
					return fmt.Errorf("core.Extend m4 n=%d: %w", n, err)
				}
				pr.metrics[fmt.Sprintf("core.extend_ms.n%d", n)] = msOf(d)
			}
		}
	}
	return nil
}

func (pr *probe) engineLayer() error {
	m4, err := pr.instance("m4")
	if err != nil {
		return err
	}
	v4i, err := pr.instance("v4i")
	if err != nil {
		return err
	}
	eng := engine.New(serveEngineOptions)
	if _, _, err := eng.Serve(pr.ctx, engine.Request{Placement: m4.p, Options: m4.options(12)}); err != nil {
		return err
	}
	d, err := medianPerOp(21, 200, func() error {
		_, info, err := eng.Serve(pr.ctx, engine.Request{Placement: m4.p, Options: m4.options(12)})
		if err == nil && !info.Hit {
			err = fmt.Errorf("engine.hit_lookup: not a hit")
		}
		return err
	})
	if err != nil {
		return err
	}
	pr.metrics["engine.hit_lookup_us"] = usOf(d)

	// Miss overhead: what Serve adds around core.Search on a miss (key,
	// singleflight, admission, insert, eviction). It is a few microseconds,
	// so it is taken on the cheapest search of the catalog, as the median
	// of paired differences over the same search under fresh names.
	const reps = 401
	diffs := make([]time.Duration, reps)
	for i := range diffs {
		p := v4i.renamed(fmt.Sprintf("miss-%d", i))
		t0 := time.Now()
		_, info, err := eng.Serve(pr.ctx, engine.Request{Placement: p, Options: v4i.options(12)})
		t1 := time.Now()
		if err == nil && info.Hit {
			err = fmt.Errorf("engine.miss_overhead: not a miss")
		}
		if err == nil {
			_, err = core.Search(pr.ctx, v4i.renamed(fmt.Sprintf("search-%d", i)), v4i.options(12))
		}
		if err != nil {
			return err
		}
		diffs[i] = t1.Sub(t0) - time.Since(t1)
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i] < diffs[j] })
	pr.metrics["engine.miss_overhead_us"] = usOf(diffs[reps/2])

	// The miss loop left the cache full: 128 entries to snapshot.
	if n := eng.Stats().Entries; n != engine.DefaultCacheSize {
		return fmt.Errorf("engine holds %d entries before the snapshot, want %d", n, engine.DefaultCacheSize)
	}
	var snap bytes.Buffer
	d, err = medianOf(5, func() error {
		snap.Reset()
		return eng.SnapshotTo(&snap)
	})
	if err != nil {
		return err
	}
	pr.metrics["engine.snapshot_ms"] = msOf(d)
	d, err = medianOf(5, func() error {
		n, err := engine.New(serveEngineOptions).RestoreFrom(bytes.NewReader(snap.Bytes()))
		if err == nil && n != engine.DefaultCacheSize {
			err = fmt.Errorf("restored %d entries, want %d", n, engine.DefaultCacheSize)
		}
		return err
	})
	if err != nil {
		return err
	}
	pr.metrics["engine.restore_ms"] = msOf(d)
	return nil
}

// serveInProcess times the whole in-process path of a request (decode,
// engine, encode) on the three serve paths; the benchmark subtracts these
// from the HTTP medians of the same requests to get serve.self_ms.
func (pr *probe) serveInProcess() error {
	m4, err := pr.instance("m4")
	if err != nil {
		return err
	}
	body := func(name string, n int) ([]byte, error) {
		var pj bytes.Buffer
		if err := sched.EncodePlacement(&pj, m4.renamed(name)); err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf(`{"placement":%s,"options":{"n":%d,"memory":%d}}`, pj.Bytes(), n, m4.Memory)), nil
	}
	eng := engine.New(serveEngineOptions)
	var sink bytes.Buffer
	i := 0
	d, err := medianOf(7, func() error {
		i++
		b, err := body(fmt.Sprintf("inproc-%d", i), 12)
		if err != nil {
			return err
		}
		_, err = pr.serve(eng, b, &sink)
		return err
	})
	if err != nil {
		return err
	}
	pr.metrics["inproc.cold_ms"] = msOf(d)
	for _, c := range []struct {
		metric string
		n      int
	}{{"inproc.hit_ms", 12}, {"inproc.hit_extend_ms", 16}} {
		b, err := body("inproc-1", c.n)
		if err != nil {
			return err
		}
		d, err := medianOf(101, func() error {
			sv, err := pr.serve(eng, b, &sink)
			if err == nil && !sv.info.Hit {
				err = fmt.Errorf("%s: not a hit", c.metric)
			}
			return err
		})
		if err != nil {
			return err
		}
		pr.metrics[c.metric] = msOf(d)
	}
	return nil
}

func (pr *probe) admitLayer() error {
	ctrl := admit.New(admit.Options{MaxConcurrent: 2, MaxQueue: 64, MaxWait: 5 * time.Second})
	d, err := medianPerOp(21, 2000, func() error {
		release, _, err := ctrl.Admit(pr.ctx, "")
		if err == nil {
			release()
		}
		return err
	})
	pr.metrics["admit.admit_ns"] = float64(d)
	return err
}

// peerLayer times a peer hit: a fresh replica whose ring names a warm one
// serves m4 by fetching and re-validating the warm replica's entry.
func (pr *probe) peerLayer() error {
	m4, err := pr.instance("m4")
	if err != nil {
		return err
	}
	warm := engine.New(serveEngineOptions)
	if _, _, err := warm.Serve(pr.ctx, engine.Request{Placement: m4.p, Options: m4.options(8)}); err != nil {
		return err
	}
	mux := http.NewServeMux()
	peer.NewServer(warm, nil).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var client *peer.Client
	d, err := medianOf(11, func() error {
		eng := engine.New(serveEngineOptions)
		var err error
		client, err = peer.NewClient(eng, peer.ClientOptions{
			Self: "layerprobe-self:0", Peers: []string{"layerprobe-self:0", srv.URL}, AttemptTimeout: 5 * time.Second,
		})
		if err != nil {
			return err
		}
		eng.SetPeerTier(client)
		_, info, err := eng.Serve(pr.ctx, engine.Request{Placement: m4.p, Options: m4.options(8)})
		if err == nil && !info.PeerHit {
			err = fmt.Errorf("peer.fetch: not a peer hit")
		}
		return err
	})
	if err != nil {
		return err
	}
	pr.metrics["peer.fetch_ms"] = msOf(d)
	fp := sched.Fingerprint(m4.p)
	d, _ = medianPerOp(21, 2000, func() error { client.Ring().Owners(fp, 2); return nil })
	pr.metrics["peer.ring_owners_ns"] = float64(d)
	return nil
}

// repetendLayer times repetend.Solve alone: the first 64 enumerated
// assignments of v6 at its golden N_R, each solved with no incumbent.
func (pr *probe) repetendLayer() error {
	v6, err := pr.instance("v6")
	if err != nil {
		return err
	}
	var assigns []repetend.Assignment
	if _, err := repetend.Enumerate(v6.p, v6.NR, func(a repetend.Assignment) bool {
		assigns = append(assigns, a.Clone())
		return len(assigns) < 64
	}); err != nil {
		return err
	}
	if len(assigns) == 0 {
		return fmt.Errorf("repetend.Enumerate(v6, %d) yielded nothing", v6.NR)
	}
	d, _ := medianOf(7, func() error {
		for _, a := range assigns {
			// An assignment may be infeasible; that is an outcome, not a
			// failure of the probe.
			_, _ = repetend.Solve(pr.ctx, v6.p, a, repetend.SolveOptions{SolverTimeout: serveSolverTimeout})
		}
		return nil
	})
	pr.metrics["repetend.solve_us"] = usOf(d) / float64(len(assigns))
	return pr.ctx.Err()
}

// solverLayer times solver.Solve alone on the whole-problem V-shape
// instances the repository's own solver benchmarks use (4 devices, 4 and 6
// micro-batches), sequentially and in jobs mode with two workers.
func (pr *probe) solverLayer() error {
	v4, err := pr.instance("v4")
	if err != nil {
		return err
	}
	for _, c := range []struct {
		metric  string
		nmb     int
		workers int
		reps    int
	}{{"nmb4", 4, 0, 15}, {"nmb6", 6, 0, 7}, {"nmb6_w2", 6, 2, 5}} {
		tasks, err := solver.BuildTasks(v4.p, solver.AllBlocks(v4.p, c.nmb), nil)
		if err != nil {
			return err
		}
		var res solver.Result
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := medianOf(c.reps, func() error {
			var err error
			res, err = solver.Solve(pr.ctx, tasks, solver.Options{Workers: c.workers})
			if err == nil && !res.Optimal {
				err = fmt.Errorf("solver %s: not solved to optimality", c.metric)
			}
			return err
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		pr.metrics["solver.solve_ms."+c.metric] = msOf(d)
		if c.metric == "nmb6" {
			pr.metrics["solver.nodes.nmb6"] = float64(res.Nodes)
			pr.metrics["solver.nodes_per_s.nmb6"] = float64(res.Nodes) / d.Seconds()
			pr.metrics["solver.memo_hit_ratio.nmb6"] = float64(res.MemoHits) / float64(res.Nodes)
			pr.metrics["solver.allocs_per_solve.nmb6"] = float64(after.Mallocs-before.Mallocs) / float64(c.reps)
		}
	}
	return nil
}
