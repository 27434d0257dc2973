package main

// The cache-hit path measured in-process: the benchmark's hot_extend mix and
// its single worst case, driven through mux() with no listener.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"tessel"
	"tessel/internal/faultpoint"
)

// hotPlacements are the ten placements of the benchmark's hot_extend
// workload: every paper shape on four devices, training and inference.
func hotPlacements(t testing.TB) []*tessel.Placement {
	t.Helper()
	builders := []func(tessel.ShapeConfig) (*tessel.Placement, error){
		tessel.NewVShape, tessel.NewXShape, tessel.NewMShape, tessel.NewKShape, tessel.NewNNShape,
	}
	var out []*tessel.Placement
	for _, inference := range []bool{false, true} {
		for _, build := range builders {
			p, err := build(tessel.ShapeConfig{Devices: 4})
			if err != nil {
				t.Fatal(err)
			}
			if inference {
				p = tessel.InferenceVariant(p)
			}
			out = append(out, p)
		}
	}
	return out
}

// searchBody is a /v1/search request for p at n micro-batches.
func searchBody(t testing.TB, p *tessel.Placement, n, memory int) []byte {
	t.Helper()
	var pj bytes.Buffer
	if err := tessel.EncodePlacement(&pj, p); err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"placement":%s,"options":{"n":%d,"memory":%d}}`, pj.Bytes(), n, memory))
}

// discardResponse is an http.ResponseWriter that keeps only the status and
// the body size, so a measurement of the handler is not one of a recorder.
type discardResponse struct {
	header http.Header
	status int
	bytes  int
}

func (d *discardResponse) Header() http.Header    { return d.header }
func (d *discardResponse) WriteHeader(status int) { d.status = status }
func (d *discardResponse) Write(p []byte) (int, error) {
	d.bytes += len(p)
	return len(p), nil
}

// hitClient posts to a handler through one reused request, so that what is
// measured is the handler and not the making of requests.
type hitClient struct {
	h   http.Handler
	req *http.Request
}

func newHitClient(h http.Handler) *hitClient {
	return &hitClient{h: h, req: httptest.NewRequest("POST", "/v1/search", nil)}
}

// post sends body, fails on a non-200 and returns the response size.
func (c *hitClient) post(t testing.TB, body []byte) int {
	t.Helper()
	w := &discardResponse{header: http.Header{}, status: http.StatusOK}
	c.req.Body = io.NopCloser(bytes.NewReader(body))
	c.h.ServeHTTP(w, c.req)
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	return w.bytes
}

// countSolves arms the solver's fault point with a counter, so a test can
// assert how many branch-and-bound solves a code path ran.
func countSolves(t testing.TB) *int {
	t.Helper()
	n := new(int)
	faultpoint.Arm(faultpoint.SolverSolve, func() error { *n++; return nil })
	t.Cleanup(func() { faultpoint.Disarm(faultpoint.SolverSolve) })
	return n
}

// BenchmarkServeHitExtend is the hot_extend mix in-process: ten placements
// cached at n = 12, then every (placement, n) pair of the workload in turn —
// one request in seven is an exact-N hit, the rest extend the cached
// repetend. No cold search runs inside the timed loop.
func BenchmarkServeHitExtend(b *testing.B) {
	s := newTestServer(b)
	c := newHitClient(s.mux())
	var mix [][]byte
	for i, p := range hotPlacements(b) {
		memory := 0
		if i == 4 { // nn4m8
			memory = 8
		}
		c.post(b, searchBody(b, p, 12, memory))
		for _, n := range []int{12, 8, 16, 32, 64, 128, 256} {
			mix = append(mix, searchBody(b, p, n, memory))
		}
	}
	for _, body := range mix { // one unmeasured pass, as the workload's warm-up
		c.post(b, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += c.post(b, mix[i%len(mix)])
	}
	b.ReportMetric(float64(total)/float64(b.N), "resp_B/op")
	if st := s.engine.Stats(); st.Misses != 10 {
		b.Fatalf("%d cold searches, want the 10 primers only", st.Misses)
	}
}

// TestServeHitExtendSteadyStateAllocs bounds what a hit at a new N costs:
// m-shape cached at n = 12 and asked for n = 64 through the handler. The
// parent commit of the completion template measured 526 allocs and
// 914,343 B per request here (two solves, three JSON passes), the two-pass
// request decode and the reflective placement encoder 159 and 123,133 B; the
// one-pass decode with the hand-written encoder measured 156 and 108,290 B,
// the one-pass Validate 156–157 and at most 68,713 B (the per-device
// copies are gone), and the completion that unrolls the body into the
// composed schedule's own array 150 and at most 48,565 B (157 and 67,377 B
// with the body unrolled and merged as a schedule of its own), and the
// request memo, which answers the repeated body without decoding it, 43 and
// 34,704 B (its parent 150 and 46,984 B), and the response head written by
// appends, the pooled Validate index and the request key built by appends 36
// and at most 24,282 B, and the certified Extend, which copies the stored
// warmup and cooldown around the unrolled body with no phase replay and no
// Validate, 23 and 21,069 B (its parent 36 and 24,117 B). The bounds are 23
// allocs and 21,069 B plus 10%, so a decode on every hit, a reflective head,
// or a replay of the template on a certified result fails them. The solver
// must not run at all.
func TestServeHitExtendSteadyStateAllocs(t *testing.T) {
	s := newTestServer(t)
	c := newHitClient(s.mux())
	p, err := tessel.NewMShape(tessel.ShapeConfig{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.post(t, searchBody(t, p, 12, 0))
	body := searchBody(t, p, 64, 0)
	c.post(t, body) // fills the template and sizes the pooled buffer

	solves := countSolves(t)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c.post(t, body)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("hit + extend m4 12→64: %.0f allocs/op, %.0f B/op, %d solves", allocs, bytesPerOp, *solves)
	if *solves != 0 {
		t.Errorf("%d solver calls over %d warm hits, want 0", *solves, runs)
	}
	if raceDetector {
		return // the bounds below are the production binary's
	}
	if max := 23 * 1.1; allocs > max {
		t.Errorf("%.0f allocs/op, want ≤ %.0f", allocs, max)
	}
	if max := 21069 * 1.1; bytesPerOp > max {
		t.Errorf("%.0f B/op, want ≤ %.0f", bytesPerOp, max)
	}
}

// TestServeCertifiedHitBytes holds a hit + Extend on the wire to a
// from-scratch completion: for each hot_extend placement cached at n = 12,
// the /v1/search body of a hit at every n of the workload — past n0 composed
// from the entry's certificate — must be, byte for byte, the body written
// under the same head from a cold search asked for n directly, whose
// completion solves its phases, merges and validates.
func TestServeCertifiedHitBytes(t *testing.T) {
	s := newTestServer(t)
	for i, p := range hotPlacements(t) {
		memory := 0
		if i == 4 { // nn4m8
			memory = 8
		}
		postSearch(t, s, string(searchBody(t, p, 12, memory)))
		for _, n := range []int{8, 16, 32, 64, 128, 256} {
			w := postSearch(t, s, string(searchBody(t, p, n, memory)))
			if w.Code != http.StatusOK {
				t.Fatalf("%s n=%d: status %d: %s", p.Name, n, w.Code, w.Body.String())
			}
			opts := tessel.SearchOptions{N: n, Memory: memory, SolverTimeout: s.cfg.solverTimeout}
			hit, info, err := s.engine.Search(t.Context(), p, opts)
			if err != nil || !info.Hit {
				t.Fatalf("%s n=%d: hit %t: %v", p.Name, n, info.Hit, err)
			}
			opts.Workers = 1
			fresh, err := tessel.Search(p, opts)
			if err != nil {
				t.Fatalf("%s n=%d: from scratch: %v", p.Name, n, err)
			}
			want := httptest.NewRecorder()
			writeSearchResponse(want, &tessel.SearchResult{
				Placement: hit.Placement, Repetend: hit.Repetend, LowerBound: hit.LowerBound, BubbleRate: hit.BubbleRate,
				N: n, Full: fresh.Full, Makespan: fresh.Makespan, Stats: hit.Stats,
			}, info)
			if !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s n=%d: hit body differs from the from-scratch completion's\n got: %.300s\nwant: %.300s",
					p.Name, n, w.Body.Bytes(), want.Body.Bytes())
			}
		}
	}
}
