package main

// The /v1/search body, byte for byte. referenceBody is the encoder the
// single-pass writer replaced, kept as the oracle: every value through
// reflection, json.Encoder and SetIndent, the schedule as a RawMessage that
// the envelope compacts and indents again.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"tessel"
	"tessel/internal/core"
	"tessel/internal/repetend"
)

// searchResponse is every member of a /v1/search body but the schedule: the
// serve tests' decode target, and the value referenceBody encodes.
type searchResponse struct {
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
	Stats       searchStatsJSON `json:"stats"`
}

type searchStatsJSON struct {
	Assignments       int     `json:"assignments"`
	Solved            int     `json:"solved"`
	Pruned            int     `json:"pruned"`
	Improved          int     `json:"improved"`
	NRSwept           int     `json:"nr_swept"`
	SolverNodes       int64   `json:"solver_nodes"`
	MemoHits          int64   `json:"memo_hits"`
	WarmupNodes       int64   `json:"warmup_nodes"`
	CooldownNodes     int64   `json:"cooldown_nodes"`
	NodesPerSec       float64 `json:"nodes_per_sec"`
	PeriodProbes      int64   `json:"period_probes"`
	PeriodRelaxations int64   `json:"period_relaxations"`
	LocalSearchSwaps  int64   `json:"local_search_swaps"`
	OrderChecks       int64   `json:"order_checks"`
	OrderPruned       int64   `json:"order_pruned"`
	OrderNodes        int64   `json:"order_nodes"`
	PrefixChecks      int64   `json:"prefix_checks"`
	PrefixCuts        int64   `json:"prefix_cuts"`
	EarlyExit         bool    `json:"early_exit"`
	Truncated         bool    `json:"truncated"`
	TotalMS           int64   `json:"total_ms"`
}

// referenceHead is the head of the body for (res, info), as the reflective
// encoder took it: the struct the handler filled field by field.
func referenceHead(res *core.Result, info tessel.CacheInfo) searchResponse {
	st := res.Stats
	head := searchResponse{
		Fingerprint: info.Fingerprint,
		CacheHit:    info.Hit,
		Shared:      info.Shared,
		Degraded:    info.Degraded,
		PeerHit:     info.PeerHit,
		N:           res.N,
		Makespan:    res.Makespan,
		LowerBound:  res.LowerBound,
		BubbleRate:  res.BubbleRate,
		Stats: searchStatsJSON{
			Assignments:       st.Assignments,
			Solved:            st.Solved,
			Pruned:            st.Pruned,
			Improved:          st.Improved,
			NRSwept:           st.NRSwept,
			SolverNodes:       st.SolverNodes,
			MemoHits:          st.SolverMemoHits,
			WarmupNodes:       st.WarmupNodes,
			CooldownNodes:     st.CooldownNodes,
			NodesPerSec:       st.NodesPerSec(),
			PeriodProbes:      st.PeriodProbes,
			PeriodRelaxations: st.PeriodRelaxations,
			LocalSearchSwaps:  st.LocalSearchSwaps,
			OrderChecks:       st.OrderChecks,
			OrderPruned:       st.OrderPruned,
			OrderNodes:        st.OrderNodes,
			PrefixChecks:      st.PrefixChecks,
			PrefixCuts:        st.PrefixCuts,
			EarlyExit:         st.EarlyExit,
			Truncated:         st.Truncated,
			TotalMS:           st.Total.Milliseconds(),
		},
	}
	if r := res.Repetend; r != nil {
		head.Period, head.NR, head.Assignment = r.Period, r.NR, []int(r.Assign)
	}
	return head
}

type referenceItem struct {
	Stage int `json:"stage"`
	Micro int `json:"micro"`
	Start int `json:"start"`
}

func referenceBody(t *testing.T, head searchResponse, full *tessel.Schedule) []byte {
	t.Helper()
	encode := func(v any) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var placement bytes.Buffer
	if err := tessel.EncodePlacement(&placement, full.P); err != nil {
		t.Fatal(err)
	}
	items := make([]referenceItem, len(full.Items))
	for i, it := range full.Items {
		items[i] = referenceItem{it.Stage, it.Micro, it.Start}
	}
	schedule := encode(struct {
		Version   int             `json:"version"`
		Placement json.RawMessage `json:"placement"`
		Items     []referenceItem `json:"items"`
	}{1, placement.Bytes(), items})
	return encode(struct {
		searchResponse
		Schedule json.RawMessage `json:"schedule"`
	}{head, schedule})
}

// TestServeSearchWireBytes posts a cold miss, an exact-N hit and a hit that
// extends, decodes each body, and asks the reference encoder for the bytes of
// what was decoded: they must be the body. Every body must also carry the
// schedule the engine holds for that request.
func TestServeSearchWireBytes(t *testing.T) {
	s := newTestServer(t)
	p, err := tessel.NewMShape(tessel.ShapeConfig{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Through the handler a name may hold anything JSON can: quotes, the
	// characters encoding/json escapes for HTML, non-ASCII. The m-shape's last
	// stage has a nil dependency list, which travels as null both ways.
	p.Name = `m "quoted" <&> é` + "\u2028"
	for _, c := range []struct {
		name string
		n    int
		hit  bool
	}{{"miss", 12, false}, {"exact-N hit", 12, true}, {"hit + extend", 40, true}, {"hit below N_R", 3, true}} {
		w := postSearch(t, s, string(searchBody(t, p, c.n, 0)))
		if w.Code != 200 {
			t.Fatalf("%s: status %d: %s", c.name, w.Code, w.Body.String())
		}
		got := w.Body.Bytes()
		var decoded struct {
			searchResponse
			Schedule json.RawMessage `json:"schedule"`
		}
		if err := json.Unmarshal(got, &decoded); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if decoded.CacheHit != c.hit || decoded.N != c.n {
			t.Fatalf("%s: cache_hit %t n %d", c.name, decoded.CacheHit, decoded.N)
		}
		full, err := tessel.DecodeSchedule(bytes.NewReader(decoded.Schedule))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := referenceBody(t, decoded.searchResponse, full); !bytes.Equal(got, want) {
			t.Errorf("%s: body differs from the reference encoding\n got: %.400s\nwant: %.400s", c.name, got, want)
		}
		res, _, err := s.engine.Search(t.Context(), p, tessel.SearchOptions{N: c.n, SolverTimeout: s.cfg.solverTimeout})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if tessel.FingerprintSchedule(full) != tessel.FingerprintSchedule(res.Full) {
			t.Errorf("%s: body carries another schedule than the engine's", c.name)
		}
	}
}

// smallSchedule is three micro-batches of a two-stage placement whose names
// need escaping and whose last stage has a nil dependency list.
func smallSchedule() *tessel.Schedule {
	p := &tessel.Placement{
		Name:       `"<&>` + "\xff é",
		NumDevices: 2,
		Stages: []tessel.Stage{
			{Name: "f ", Kind: tessel.Forward, Time: 1, Mem: 1, Devices: []tessel.DeviceID{0}},
			{Name: "</b>", Kind: tessel.Backward, Time: 2, Mem: -1, Devices: []tessel.DeviceID{0, 1}},
		},
		Deps: [][]int{{1}, nil},
	}
	full := &tessel.Schedule{P: p}
	for m := 0; m < 3; m++ {
		full.Add(0, m, 3*m)
		full.Add(1, m, 3*m+1)
	}
	return full
}

// TestWriteSearchResponseMatchesReference covers the bodies no request can
// produce today: a result without a repetend (null assignment), a placement
// holding a nil dependency list, and floats encoding/json cannot write, which
// get the 500 that json.MarshalIndent's error gave.
func TestWriteSearchResponseMatchesReference(t *testing.T) {
	full := smallSchedule()
	p := full.P
	for _, c := range []struct {
		res  *core.Result
		info tessel.CacheInfo
	}{
		{&core.Result{N: 3, Makespan: 9, BubbleRate: 1.0 / 3}, tessel.CacheInfo{Fingerprint: "f"}},
		{&core.Result{Repetend: &repetend.Repetend{Assign: repetend.Assignment{1, 0}, NR: 2, Period: 5},
			Stats: core.Stats{Effort: repetend.Effort{SolverNodes: 2e12}, Phase: core.PhaseDurations{Repetend: 1}, Total: 7 * time.Millisecond}},
			tessel.CacheInfo{Hit: true}},
		{&core.Result{Repetend: &repetend.Repetend{Assign: repetend.Assignment{}}}, tessel.CacheInfo{}},
	} {
		c.res.Full = full
		w := httptest.NewRecorder()
		writeSearchResponse(w, c.res, c.info)
		if want := referenceBody(t, referenceHead(c.res, c.info), full); !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("body differs from the reference encoding\n got: %s\nwant: %s", w.Body.Bytes(), want)
		}
		if w.Code != 200 || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("status %d, content type %q", w.Code, w.Header().Get("Content-Type"))
		}
	}
	empty := &core.Result{Full: &tessel.Schedule{P: p}}
	w := httptest.NewRecorder()
	writeSearchResponse(w, empty, tessel.CacheInfo{})
	if want := referenceBody(t, referenceHead(empty, tessel.CacheInfo{}), empty.Full); !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("empty schedule differs from the reference encoding\n got: %s\nwant: %s", w.Body.Bytes(), want)
	}
	for _, bubble := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := &core.Result{BubbleRate: bubble, Full: full}
		_, err := json.MarshalIndent(referenceHead(res, tessel.CacheInfo{}), "", "  ")
		w := httptest.NewRecorder()
		writeSearchResponse(w, res, tessel.CacheInfo{})
		var body errorResponse
		if jerr := json.Unmarshal(w.Body.Bytes(), &body); w.Code != 500 || jerr != nil || err == nil || body.Error != err.Error() {
			t.Errorf("status %d, body %s; want 500 with MarshalIndent's error %v", w.Code, w.Body.Bytes(), err)
		}
	}
}

// TestSearchStatsWireCarriesEveryCounter is counter parity checked on values.
// Every int/int64 field of core.Stats, the promoted repetend.Effort counters
// included, gets a distinct value and every flag is set; the stats object of
// the body writeSearchResponse writes for a core.Result holding them must
// carry each under its snake_case key, the Solver prefix optionally dropped
// (SolverMemoHits → memo_hits), so the hand-written head may neither drop nor
// cross one. The two derived members are total_ms (Total in milliseconds) and
// nodes_per_sec (Stats.NodesPerSec). A counter without a wire field, a wire
// field that is never filled, and two crossed counters all fail; so does a
// wire key that no field explains.
func TestSearchStatsWireCarriesEveryCounter(t *testing.T) {
	var st core.Stats
	sv := reflect.ValueOf(&st).Elem()
	type wireWant struct {
		field string
		keys  []string
		value any // as encoding/json decodes it: float64 or bool
	}
	var wants []wireWant
	next := int64(1)
	for _, f := range reflect.VisibleFields(sv.Type()) {
		if f.Anonymous || !f.IsExported() {
			continue
		}
		fv := sv.FieldByIndex(f.Index)
		key := snakeCase(f.Name)
		keys := []string{key}
		if trimmed, ok := strings.CutPrefix(f.Name, "Solver"); ok {
			keys = append(keys, snakeCase(trimmed))
		}
		switch {
		case f.Type == reflect.TypeOf(time.Duration(0)):
			fv.SetInt(next * int64(time.Millisecond))
			wants = append(wants, wireWant{f.Name, []string{key + "_ms"}, float64(next)})
		case fv.Kind() == reflect.Int || fv.Kind() == reflect.Int64:
			fv.SetInt(next)
			wants = append(wants, wireWant{f.Name, keys, float64(next)})
		case fv.Kind() == reflect.Bool:
			fv.SetBool(true)
			wants = append(wants, wireWant{f.Name, keys, true})
		default:
			continue // Phase: a breakdown, not a counter; the wire does not carry it
		}
		next++
	}
	st.Phase.Repetend = 4 * time.Second
	wants = append(wants, wireWant{"NodesPerSec()", []string{"nodes_per_sec"}, st.NodesPerSec()})

	w := httptest.NewRecorder()
	writeSearchResponse(w, &core.Result{Stats: st, Full: smallSchedule()}, tessel.CacheInfo{})
	var body struct {
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("%v\n%s", err, w.Body.Bytes())
	}
	wire := body.Stats
	for _, w := range wants {
		key := ""
		for _, k := range w.keys {
			if _, ok := wire[k]; ok {
				key = k
			}
		}
		if key == "" {
			t.Errorf("core.Stats.%s has no wire field (want one of %q)", w.field, w.keys)
			continue
		}
		if got := wire[key]; got != w.value {
			t.Errorf("wire %s = %v, want %v from core.Stats.%s", key, got, w.value, w.field)
		}
		delete(wire, key)
	}
	for key, v := range wire {
		t.Errorf("wire %s = %v is filled from no core.Stats field", key, v)
	}
}

// snakeCase spells a Go field name as its wire key, acronym runs kept
// together: SolverNodes → solver_nodes, NRSwept → nr_swept.
func snakeCase(name string) string {
	upper := func(i int) bool { return 'A' <= name[i] && name[i] <= 'Z' }
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		if i > 0 && upper(i) && (!upper(i-1) || i+1 < len(name) && !upper(i+1)) {
			b.WriteByte('_')
		}
		b.WriteByte(name[i])
	}
	return strings.ToLower(b.String())
}

// TestServeSearchFraming reads /v1/search responses off a real listener. A
// 200 carries a Content-Length equal to its body and is not chunked: a cold
// miss, an exact-N hit and a hit that extends to n = 256, whose body is tens
// of kilobytes, far past the 2 KB net/http buffers before it would chunk. An
// error body is written as before, through writeJSON with no length of its
// own; being short, it is still sent whole, its length set by net/http.
func TestServeSearchFraming(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t).mux())
	defer ts.Close()
	p, err := tessel.NewMShape(tessel.ShapeConfig{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	post := func(name string, body []byte, status int) []byte {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d: %s", name, resp.StatusCode, status, got)
		}
		if resp.ContentLength != int64(len(got)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d (header %q), transfer encoding %q, body of %d bytes",
				name, resp.ContentLength, resp.Header.Get("Content-Length"), resp.TransferEncoding, len(got))
		}
		return got
	}
	for _, c := range []struct {
		name string
		n    int
		hit  bool
	}{{"cold miss", 12, false}, {"exact-N hit", 12, true}, {"hit + extend", 256, true}} {
		var resp searchResponse
		if err := json.Unmarshal(post(c.name, searchBody(t, p, c.n, 0), 200), &resp); err != nil || resp.CacheHit != c.hit || resp.N != c.n {
			t.Fatalf("%s: cache_hit %t, n %d, %v", c.name, resp.CacheHit, resp.N, err)
		}
	}
	var refused errorResponse
	if err := json.Unmarshal(post("refused", []byte(`{not json`), 400), &refused); err != nil || refused.Error == "" {
		t.Fatalf("refused: %+v, %v", refused, err)
	}
}
