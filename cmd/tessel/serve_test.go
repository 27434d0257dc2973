package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tessel"
	"tessel/internal/faultpoint"
	"tessel/internal/sched"
)

// testConfig parses args over the serve flag defaults, as runServe does.
func testConfig(t testing.TB, args ...string) *serveConfig {
	t.Helper()
	fs := flag.NewFlagSet("tessel serve", flag.ContinueOnError)
	cfg := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// newTestServer builds a server the way runServe does, without binding a
// listener. Like a booting replica it starts not ready.
func newTestServer(t testing.TB, args ...string) *server {
	t.Helper()
	s, err := newServer(testConfig(t, args...))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func placementJSON(t *testing.T) []byte {
	t.Helper()
	p, err := tessel.NewVShape(tessel.ShapeConfig{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tessel.EncodePlacement(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postSearch(t *testing.T, s *server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.mux().ServeHTTP(w, req)
	return w
}

// postOptions posts the test placement with the given options object.
func postOptions(t *testing.T, s *server, options any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"placement": json.RawMessage(placementJSON(t)),
		"options":   options,
	})
	if err != nil {
		t.Fatal(err)
	}
	return postSearch(t, s, string(body))
}

// TestServeSearchEndToEnd drives the handler twice with the same placement
// and checks the second response is flagged as a cache hit and agrees with
// the first on the makespan.
func TestServeSearchEndToEnd(t *testing.T) {
	s := newTestServer(t)
	body, err := json.Marshal(map[string]any{
		"placement": json.RawMessage(placementJSON(t)),
		"options":   map[string]any{"n": 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	var first struct {
		searchResponse
		Schedule json.RawMessage `json:"schedule"`
	}
	var second searchResponse
	w := postSearch(t, s, string(body))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	if first.N != 8 || first.Makespan <= 0 || first.Fingerprint == "" {
		t.Fatalf("first response: %+v", first)
	}
	// The solver-effort counters must be populated for a cold search.
	if first.Stats.SolverNodes <= 0 || first.Stats.NodesPerSec <= 0 {
		t.Fatalf("solver stats not populated: %+v", first.Stats)
	}
	if first.Stats.MemoHits < 0 || first.Stats.MemoHits > first.Stats.SolverNodes {
		t.Fatalf("memo hits out of range: %+v", first.Stats)
	}
	// A cold search sweeps at least one repetend count (core.Stats.NRSwept;
	// TestSearchStatsWireCarriesEveryCounter holds every counter's copy).
	if first.Stats.NRSwept <= 0 {
		t.Fatalf("nr_swept not populated: %+v", first.Stats)
	}
	// The period-machinery counters must be populated too: a default
	// (tight-compaction) search runs feasibility probes for every solved
	// repetend, and relaxations imply probes.
	if first.Stats.PeriodProbes <= 0 || first.Stats.PeriodRelaxations <= 0 {
		t.Fatalf("period stats not populated: %+v", first.Stats)
	}
	if first.Stats.LocalSearchSwaps < 0 {
		t.Fatalf("local search swaps negative: %+v", first.Stats)
	}
	// The winner of a search that reaches its lower bound went through the
	// order check, and whatever the check discarded is among the pruned.
	if st := first.Stats; st.OrderChecks <= 0 || st.OrderPruned > st.OrderChecks || st.OrderPruned > int64(st.Pruned) || st.OrderNodes < 0 {
		t.Fatalf("order-check stats not populated: %+v", st)
	}
	// The embedded schedule must round-trip through the decoder.
	sched, err := tessel.DecodeSchedule(bytes.NewReader(first.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan() != first.Makespan {
		t.Fatalf("schedule makespan %d != reported %d", sched.Makespan(), first.Makespan)
	}

	w = postSearch(t, s, string(body))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second request missed the cache")
	}
	if second.Makespan != first.Makespan || second.Fingerprint != first.Fingerprint {
		t.Fatalf("cache hit disagrees: %+v vs %+v", second, first.searchResponse)
	}

	// Stats endpoint reflects the hit.
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, req)
	var st struct {
		Hits     uint64 `json:"hits"`
		Misses   uint64 `json:"misses"`
		Admitted uint64 `json:"admitted"`
		Ready    bool   `json:"ready"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Admitted != 1 {
		t.Fatalf("admitted = %d, want 1 (the one cold search)", st.Admitted)
	}
}

// TestServeBadRequests covers the error paths: wrong method, bad JSON,
// missing placement, invalid placement.
func TestServeBadRequests(t *testing.T) {
	s := newTestServer(t)

	req := httptest.NewRequest("GET", "/v1/search", nil)
	w := httptest.NewRecorder()
	s.mux().ServeHTTP(w, req)
	if w.Code != 405 {
		t.Fatalf("GET status %d", w.Code)
	}

	if w := postSearch(t, s, "{not json"); w.Code != 400 {
		t.Fatalf("bad JSON status %d", w.Code)
	}
	if w := postSearch(t, s, `{"options":{"n":4}}`); w.Code != 400 {
		t.Fatalf("missing placement status %d", w.Code)
	}
	// Structurally invalid placement: stage with no devices.
	bad := `{"placement":{"name":"x","num_devices":1,"stages":[{"name":"a","time":1,"devices":[]}],"deps":[[]]}}`
	if w := postSearch(t, s, bad); w.Code != 400 {
		t.Fatalf("invalid placement status %d", w.Code)
	}
}

// TestServeNegativeN: a negative micro-batch count — or budget, or a max_nr
// above 2^18 — is a request-validation failure — a clean 400 (not 422, and not a handler
// panic) — and the same placement stays searchable.
func TestServeNegativeN(t *testing.T) {
	s := newTestServer(t)
	body, err := json.Marshal(map[string]any{
		"placement": json.RawMessage(placementJSON(t)),
		"options":   map[string]any{"n": -5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := postSearch(t, s, string(body)); w.Code != 400 {
		t.Fatalf("negative n status %d: %s", w.Code, w.Body.String())
	}
	// Negative budgets are refused the same way, degradation opt-in or not.
	for _, opt := range []string{"memory", "max_assignments", "solver_nodes", "solver_timeout_ms"} {
		if w := postOptions(t, s, map[string]any{"n": 4, opt: -1, "allow_degraded": true}); w.Code != 400 {
			t.Fatalf("negative %s status %d: %s", opt, w.Code, w.Body.String())
		}
	}
	// So is a repetend size cap above the one the search arithmetic is proven
	// for; the limit itself is served.
	if w := postOptions(t, s, map[string]any{"n": 4, "max_nr": 1<<18 + 1}); w.Code != 400 {
		t.Fatalf("max_nr 2^18+1 status %d: %s", w.Code, w.Body.String())
	}
	if w := postOptions(t, s, map[string]any{"n": 4, "max_nr": 1 << 18}); w.Code != 200 {
		t.Fatalf("max_nr 2^18 status %d: %s", w.Code, w.Body.String())
	}
	// A per-solve budget that would wrap around as a time.Duration — to
	// 448µs or to a negative one — is refused; the largest that does not is
	// served.
	for _, ms := range []int64{18446744073710, 9223372036855} {
		if w := postOptions(t, s, map[string]any{"n": 4, "solver_timeout_ms": ms}); w.Code != 400 {
			t.Fatalf("solver_timeout_ms %d status %d: %s", ms, w.Code, w.Body.String())
		}
	}
	if w := postOptions(t, s, map[string]any{"n": 4, "solver_timeout_ms": int64(9223372036854)}); w.Code != 200 {
		t.Fatalf("solver_timeout_ms 9223372036854 status %d: %s", w.Code, w.Body.String())
	}
	good, _ := json.Marshal(map[string]any{
		"placement": json.RawMessage(placementJSON(t)),
		"options":   map[string]any{"n": 4},
	})
	if w := postSearch(t, s, string(good)); w.Code != 200 {
		t.Fatalf("placement unusable after bad request: %d %s", w.Code, w.Body.String())
	}
}

// TestServeStageTimeCap: a placement with a stage time above
// sched.MaxStageTime is a 400 — at 1<<61 the search's sums would wrap and
// the completed schedule come back invalid, a 422 — and one at the cap is
// searched.
func TestServeStageTimeCap(t *testing.T) {
	s := newTestServer(t)
	post := func(time int) *httptest.ResponseRecorder {
		t.Helper()
		p, err := tessel.NewVShape(tessel.ShapeConfig{Devices: 2, Fwd: time, Bwd: time})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tessel.EncodePlacement(&buf, p); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"placement": json.RawMessage(buf.Bytes()), "options": map[string]any{"n": 4}})
		if err != nil {
			t.Fatal(err)
		}
		return postSearch(t, s, string(body))
	}
	for _, time := range []int{sched.MaxStageTime + 1, 1 << 61} {
		if w := post(time); w.Code != 400 || !strings.Contains(w.Body.String(), "above the cap") {
			t.Fatalf("stage time %d: status %d: %s", time, w.Code, w.Body.String())
		}
	}
	w := post(sched.MaxStageTime)
	var resp searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != 200 || err != nil {
		t.Fatalf("stage time at the cap: status %d, %v: %s", w.Code, err, w.Body.String())
	}
	// Four micro-batches of four blocks on two devices: each device runs eight
	// blocks, so the makespan is at least 8·cap and a wrapped sum would show.
	if resp.Makespan < 8*sched.MaxStageTime {
		t.Fatalf("stage time at the cap: makespan %d", resp.Makespan)
	}
}

// TestServeStageCountCap: a body under the 1 MiB request cap can hold a
// one-device chain of 30,000 stages, whose first repetend solve would
// allocate gigabytes. It is a 400 before the engine sees it: no search, no
// miss.
func TestServeStageCountCap(t *testing.T) {
	s := newTestServer(t)
	const k = 30000
	var stages, deps strings.Builder
	for i := 1; i < k; i++ {
		stages.WriteString(`{"time":1,"devices":[0]},`)
		fmt.Fprintf(&deps, "[%d],", i)
	}
	body := `{"placement":{"name":"chain","num_devices":1,"stages":[` + stages.String() + `{"time":1,"devices":[0]}],` +
		`"deps":[` + deps.String() + `[]]},"options":{"n":8}}`
	if len(body) >= maxRequestBytes {
		t.Fatalf("body of %d bytes, want it under the request cap", len(body))
	}
	if w := postSearch(t, s, body); w.Code != 400 || !strings.Contains(w.Body.String(), "stages above the cap") {
		t.Fatalf("%d stages: status %d: %s", k, w.Code, w.Body.String())
	}
	if st := s.engine.Stats(); st.Misses != 0 {
		t.Fatalf("%d stages: %d misses, want none", k, st.Misses)
	}
}

// TestServeStageMemCap: a memory delta beyond ±sched.MaxStageMem is a 400 —
// on one device, f0 → f1 → b1 → b0 with ±2^62 peaks at 2^63, which the
// memory sums wrap to a negative number that fits a capacity of 2^62+1 — and
// the same chain at the cap is searched and kept under its capacity.
func TestServeStageMemCap(t *testing.T) {
	s := newTestServer(t)
	post := func(mem, capacity int) *httptest.ResponseRecorder {
		t.Helper()
		body := fmt.Sprintf(`{"placement":{"name":"chain","num_devices":1,"stages":[`+
			`{"name":"f0","time":1,"mem":%[1]d,"devices":[0]},{"name":"f1","time":1,"mem":%[1]d,"devices":[0]},`+
			`{"name":"b1","kind":"backward","time":1,"mem":-%[1]d,"devices":[0]},{"name":"b0","kind":"backward","time":1,"mem":-%[1]d,"devices":[0]}],`+
			`"deps":[[1],[2],[3],[]]},"options":{"n":4,"memory":%[2]d}}`, mem, capacity)
		return postSearch(t, s, body)
	}
	if w := post(1<<62, 1<<62+1); w.Code != 400 || !strings.Contains(w.Body.String(), "above the cap") {
		t.Fatalf("memory delta 2^62: status %d: %s", w.Code, w.Body.String())
	}
	w := post(sched.MaxStageMem, 2*sched.MaxStageMem)
	var resp searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != 200 || err != nil {
		t.Fatalf("memory delta at the cap: status %d, %v: %s", w.Code, err, w.Body.String())
	}
	// Each micro-batch holds two deltas at its peak, so only one runs at a
	// time: four micro-batches of four unit blocks end at 16.
	if resp.Makespan != 16 {
		t.Fatalf("memory delta at the cap: makespan %d, want 16", resp.Makespan)
	}
}

// TestServeIgnoresRetiredWorkersOption: solver_workers was a request option while
// the solver had a second engine. A client that still sends it gets a 200 —
// the field is read past like any unknown key — and the same cache entry as
// a client that does not.
func TestServeIgnoresRetiredWorkersOption(t *testing.T) {
	s := newTestServer(t)
	post := func(options map[string]any) searchResponse {
		t.Helper()
		w := postOptions(t, s, options)
		if w.Code != 200 {
			t.Fatalf("options %v: status %d: %s", options, w.Code, w.Body.String())
		}
		var resp searchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if first := post(map[string]any{"n": 4, "solver_workers": 4}); first.CacheHit {
		t.Fatal("first search hit the cache")
	}
	if second := post(map[string]any{"n": 4}); !second.CacheHit {
		t.Fatal("the same request without solver_workers ran its own search")
	}
}

// TestServeMaxNCap: a micro-batch count above the server cap is rejected
// before any search or unroll work happens.
func TestServeMaxNCap(t *testing.T) {
	s := newTestServer(t)
	body, _ := json.Marshal(map[string]any{
		"placement": json.RawMessage(placementJSON(t)),
		"options":   map[string]any{"n": 2000000000},
	})
	w := postSearch(t, s, string(body))
	if w.Code != 400 {
		t.Fatalf("oversized n status %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "exceeds the server cap") {
		t.Fatalf("error does not name the cap: %s", w.Body.String())
	}
}

// chainJSON builds a minimal 2-device 1F1B chain placement whose forward
// time f gives every value a distinct fingerprint — the cheap way to mint
// distinct cold requests for admission tests.
func chainJSON(f int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"name":"chain-%d","num_devices":2,"stages":[`+
		`{"name":"f0","time":%d,"mem":1,"devices":[0]},`+
		`{"name":"f1","time":1,"mem":1,"devices":[1]},`+
		`{"name":"b1","kind":"backward","time":2,"mem":-1,"devices":[1]},`+
		`{"name":"b0","kind":"backward","time":2,"mem":-1,"devices":[0]}],`+
		`"deps":[[1],[2],[3],[]]}`, f, f))
}

// TestServeReadyz: /readyz gates on the snapshot restore while /healthz
// only reports liveness — a booting replica is alive but not ready. The
// JSON body names the reason and the peer-ring view, and the peer health
// endpoint mirrors the same readiness for remote probers.
func TestServeReadyz(t *testing.T) {
	s := newTestServer(t)
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.mux().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	ready := func(w *httptest.ResponseRecorder) readyzJSON {
		t.Helper()
		var body readyzJSON
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("/readyz body %q: %v", w.Body.String(), err)
		}
		return body
	}
	if w := get("/healthz"); w.Code != 200 {
		t.Fatalf("/healthz during boot: %d", w.Code)
	}
	w := get("/readyz")
	if body := ready(w); w.Code != 503 || body.Ready || body.Reason != "restoring" {
		t.Fatalf("/readyz during boot: %d %+v", w.Code, body)
	}
	// The peer health endpoint reports the same gate to remote probers.
	if w := get("/v1/peer/health"); w.Code != 503 {
		t.Fatalf("/v1/peer/health during boot: %d", w.Code)
	}
	s.ready.Store(true)
	w = get("/readyz")
	if body := ready(w); w.Code != 200 || !body.Ready || body.Reason != "ok" || body.PeersConfigured != 0 {
		t.Fatalf("/readyz after restore: %d %+v", w.Code, body)
	}
	if w := get("/v1/peer/health"); w.Code != 200 {
		t.Fatalf("/v1/peer/health after restore: %d", w.Code)
	}

	// With a peer ring installed, /readyz reports the local health view —
	// and an ejected peer flips the reason to degraded-ring while the
	// replica itself stays ready (it can always answer alone).
	client, err := tessel.NewPeerClient(s.engine, tessel.PeerClientOptions{
		Self: "a:1", Peers: []string{"a:1", "b:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.peerClient = client
	s.engine.SetPeerTier(client)
	w = get("/readyz")
	if body := ready(w); w.Code != 200 || body.Reason != "ok" || body.PeersConfigured != 1 || body.PeersHealthy != 1 {
		t.Fatalf("/readyz with healthy ring: %d %+v", w.Code, body)
	}
	client.Ring().Eject("b:2")
	w = get("/readyz")
	if body := ready(w); w.Code != 200 || !body.Ready || body.Reason != "degraded-ring" || body.PeersHealthy != 0 {
		t.Fatalf("/readyz with ejected peer: %d %+v", w.Code, body)
	}
}

// TestServeSnapshotWriteRetry: a disk that fails twice and then recovers
// must cost two counted snapshot_write_errors and still produce the
// snapshot; a disk that never recovers exhausts the bounded retries and
// surfaces the error.
func TestServeSnapshotWriteRetry(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	s := newTestServer(t)
	s.cfg.snapshotPath = filepath.Join(t.TempDir(), "cache.snap")
	s.ready.Store(true)

	var calls atomic.Int32
	faultpoint.Arm(faultpoint.EngineSnapshotWrite, func() error {
		if calls.Add(1) <= 2 {
			return errors.New("injected disk failure")
		}
		return nil
	})
	if err := s.writeSnapshot(); err != nil {
		t.Fatalf("writeSnapshot with recovering disk: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("snapshot writer ran %d times, want 3 (two failures + one success)", got)
	}
	if st := s.engine.Stats(); st.SnapshotWriteErrors != 2 {
		t.Fatalf("snapshot write errors = %d, want 2", st.SnapshotWriteErrors)
	}

	// The counter reaches /v1/stats under its engine.Stats tag.
	w := httptest.NewRecorder()
	s.mux().ServeHTTP(w, httptest.NewRequest("GET", "/v1/stats", nil))
	var stats map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if got, ok := stats["snapshot_write_errors"].(float64); !ok || got != 2 {
		t.Fatalf("/v1/stats snapshot_write_errors = %v, want 2", stats["snapshot_write_errors"])
	}
	for _, field := range []string{"peer_hits", "peer_misses", "peer_errors", "peer_retries", "breaker_open", "peers_healthy"} {
		if _, ok := stats[field]; !ok {
			t.Fatalf("/v1/stats is missing the %s field", field)
		}
	}

	// Permanent failure: all attempts burn, the error comes back, and every
	// attempt is counted.
	faultpoint.Arm(faultpoint.EngineSnapshotWrite, func() error {
		return errors.New("injected permanent disk failure")
	})
	if err := s.writeSnapshot(); err == nil {
		t.Fatal("writeSnapshot succeeded against a permanently failing disk")
	}
	if st := s.engine.Stats(); st.SnapshotWriteErrors != 2+snapshotWriteAttempts {
		t.Fatalf("snapshot write errors = %d, want %d", st.SnapshotWriteErrors, 2+snapshotWriteAttempts)
	}
}

// TestServeOverloadAndDegraded exhausts a tenant's admission budget: the
// first cold search is admitted, the second is shed with 429 and a
// Retry-After header, and a third that set allow_degraded gets a 200
// flagged "degraded" instead of the refusal.
func TestServeOverloadAndDegraded(t *testing.T) {
	// Burst 1 and a near-zero refill rate: one cold search per tenant,
	// deterministically.
	s := newTestServer(t, "-tenant-rate", "1e-9", "-tenant-burst", "1")
	post := func(placement json.RawMessage, degraded bool) *httptest.ResponseRecorder {
		t.Helper()
		body, err := json.Marshal(map[string]any{
			"placement": placement,
			"options":   map[string]any{"n": 6, "allow_degraded": degraded},
			"tenant":    "acme",
		})
		if err != nil {
			t.Fatal(err)
		}
		return postSearch(t, s, string(body))
	}

	if w := post(chainJSON(1), false); w.Code != 200 {
		t.Fatalf("first cold search: %d %s", w.Code, w.Body.String())
	}

	w := post(chainJSON(2), false)
	if w.Code != 429 {
		t.Fatalf("over-budget search: %d %s", w.Code, w.Body.String())
	}
	retry, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After %q not a positive second count: %v", w.Header().Get("Retry-After"), err)
	}

	w = post(chainJSON(3), true)
	if w.Code != 200 {
		t.Fatalf("degraded search: %d %s", w.Code, w.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("over-budget allow_degraded response not flagged degraded")
	}
	if resp.Makespan <= 0 {
		t.Fatalf("degraded response unusable: %+v", resp)
	}

	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st struct {
		Admitted uint64 `json:"admitted"`
		Shed     uint64 `json:"shed"`
		Degraded uint64 `json:"degraded"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 1 || st.Shed != 1 || st.Degraded != 1 {
		t.Fatalf("stats admitted=%d shed=%d degraded=%d, want 1/1/1", st.Admitted, st.Shed, st.Degraded)
	}
}

// TestRetryAfterSecondsClamped: the Retry-After header mapper must emit a
// positive whole-second count for every overload hint shape — most acutely
// the expired-deadline shed, whose raw "time remaining" is negative.
// Admission control clamps its hints at 1s, but the serve layer re-floors
// rather than trusting that invariant across the package boundary.
func TestRetryAfterSecondsClamped(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-90 * time.Second, 1}, // deadline elapsed before admission
		{0, 1},
		{300 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2}, // rounds up, never down to 1½→1
	}
	for _, tc := range cases {
		err := error(&tessel.OverloadError{Reason: "deadline elapsed before admission", RetryAfter: tc.d})
		if got := retryAfterSeconds(err); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	if got := retryAfterSeconds(errors.New("not an overload")); got != 1 {
		t.Errorf("non-overload fallback = %d, want 1", got)
	}
}

// TestServeSnapshotRestartToWarm drives the restart story end to end at the
// HTTP layer: a search served by one server, snapshotted, restored into a
// second server, is a cache hit there with the identical fingerprint and
// makespan, and /v1/stats reports the restore.
func TestServeSnapshotRestartToWarm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	body, err := json.Marshal(map[string]any{
		"placement": chainJSON(7),
		"options":   map[string]any{"n": 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	s1 := newTestServer(t)
	w := postSearch(t, s1, string(body))
	if w.Code != 200 {
		t.Fatalf("cold search: %d %s", w.Code, w.Body.String())
	}
	var cold searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cold); err != nil {
		t.Fatal(err)
	}
	if err := s1.engine.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, "-snapshot", path)
	if n := s2.engine.LoadSnapshot(path); n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	s2.ready.Store(true)
	w = postSearch(t, s2, string(body))
	if w.Code != 200 {
		t.Fatalf("post-restart search: %d %s", w.Code, w.Body.String())
	}
	var warm searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("post-restart search missed the restored cache")
	}
	if warm.Fingerprint != cold.Fingerprint || warm.Makespan != cold.Makespan {
		t.Fatalf("restored result drifted: %+v vs %+v", warm, cold)
	}

	rec := httptest.NewRecorder()
	s2.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st struct {
		Restored uint64 `json:"restored"`
		Misses   uint64 `json:"misses"`
		Ready    bool   `json:"ready"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.Misses != 0 || !st.Ready {
		t.Fatalf("stats after restart: %+v", st)
	}
}
