package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tessel"
)

// fakeServe answers /v1/search the way `tessel serve` does, from an
// in-process search, and lets a test corrupt chosen responses.
type fakeServe struct {
	seq atomic.Int64
	// mutate may change the response fields of the seq-th request (from 0)
	// or return a status other than 200 to fail it.
	mutate func(seq int64, resp map[string]any) int
}

func (f *fakeServe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Placement json.RawMessage `json:"placement"`
		Options   struct {
			N      int `json:"n"`
			Memory int `json:"memory"`
		} `json:"options"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p, err := tessel.DecodePlacement(bytes.NewReader(req.Placement))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := tessel.Search(p, tessel.SearchOptions{N: req.Options.N, Memory: req.Options.Memory})
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	var schedule bytes.Buffer
	if err := tessel.EncodeSchedule(&schedule, res.Full); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := map[string]any{
		"fingerprint": tessel.Fingerprint(p), "cache_hit": false, "shared": false, "degraded": false, "peer_hit": false,
		"n": res.N, "makespan": res.Makespan, "lower_bound": res.LowerBound, "period": res.Repetend.Period, "nr": res.Repetend.NR,
		"stats":    map[string]any{"assignments": res.Stats.Assignments, "truncated": false},
		"schedule": json.RawMessage(schedule.Bytes()),
	}
	status := http.StatusOK
	if f.mutate != nil {
		if s := f.mutate(f.seq.Add(1)-1, resp); s != 0 {
			status = s
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// testWorkload is a small cold workload: two cheap instances per pass.
var testWorkload = workload{name: "test_cold", kind: kindCold, clients: 1, instances: []string{"v4", "k4"}, ns: []int{8}, block: 2}

// drive runs count requests of wl against the fake and summarizes them.
func drive(t *testing.T, f *fakeServe, wl *workload, count int) *runResult {
	t.Helper()
	ts := httptest.NewServer(f)
	defer ts.Close()
	srv := &server{base: ts.URL, hc: ts.Client()}
	clients := []*client{newClient(wl, 1, 0)}
	samples, err := phase(context.Background(), srv, wl, clients, count, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != count {
		t.Fatalf("got %d samples, want %d", len(samples), count)
	}
	return summarize(wl, samples, clients)
}

func TestCleanRunIsCorrect(t *testing.T) {
	res := drive(t, &fakeServe{}, &testWorkload, 6)
	if !res.Correct || res.Failed != 0 || res.Attempted != 6 {
		t.Fatalf("clean run: correct=%v attempted=%d failed=%d %v", res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	// v4 and k4 at n=8: the first and the latest body of each are verified.
	if res.Verified != 4 {
		t.Errorf("verified %d bodies in full, want 4", res.Verified)
	}
	if got := res.Metrics["period_over_lb_geomean"].Value; got != 1 {
		t.Errorf("period_over_lb_geomean = %v, want 1 (both instances reach their lower bound)", got)
	}
	if res.Metrics["latency_p50_ms"].Value <= 0 || res.Metrics["throughput_rps"].Value <= 0 {
		t.Errorf("latency and throughput must be positive: %+v", res.Metrics)
	}
}

// Each of these is one failed operation, and makes the run incorrect.
func TestFailedOperations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(resp map[string]any) int
		want   string
	}{
		{"cache hit on a cold workload", func(r map[string]any) int { r["cache_hit"] = true; return 0 }, "cache_hit=true"},
		{"shared on a cold workload", func(r map[string]any) int { r["shared"] = true; return 0 }, "shared=true"},
		{"degraded", func(r map[string]any) int { r["degraded"] = true; return 0 }, "degraded"},
		{"peer hit", func(r map[string]any) int { r["peer_hit"] = true; return 0 }, "peer_hit"},
		{"period above golden", func(r map[string]any) int { r["period"] = r["period"].(int) + 1; return 0 }, "above the golden"},
		{"truncated search", func(r map[string]any) int { r["stats"].(map[string]any)["truncated"] = true; return 0 }, "truncated"},
		{"wrong n", func(r map[string]any) int { r["n"] = 9; return 0 }, "asked for 8"},
		{"non-200", func(r map[string]any) int { return http.StatusTooManyRequests }, "status 429"},
		{"wrong declared makespan", func(r map[string]any) int { r["makespan"] = r["makespan"].(int) + 1; return 0 }, "makespan"},
		{"schedule missing a block", func(r map[string]any) int {
			var s map[string]any
			json.Unmarshal(r["schedule"].(json.RawMessage), &s)
			s["items"] = s["items"].([]any)[1:]
			raw, _ := json.Marshal(s)
			r["schedule"] = json.RawMessage(raw)
			return 0
		}, "blocks"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := &fakeServe{mutate: func(seq int64, resp map[string]any) int {
				if seq != 2 {
					return 0
				}
				return c.mutate(resp)
			}}
			// The third request repeats an instance of the first pass, so a
			// corrupted body that passes the per-response check is held back
			// as that instance's latest and meets the full verification.
			res := drive(t, f, &testWorkload, 3)
			if res.Correct || res.Failed != 1 || res.Attempted != 3 {
				t.Fatalf("correct=%v attempted=%d failed=%d, want one failed operation of three; %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			if !strings.Contains(res.Failures[0], c.want) {
				t.Errorf("failure %q does not mention %q", res.Failures[0], c.want)
			}
		})
	}
}

// A hot workload must be served from the cache once it is primed.
func TestMissOnHotWorkload(t *testing.T) {
	wl := workload{name: "test_hot", kind: kindHot, clients: 1, instances: []string{"v4"}, ns: []int{8}, block: 2}
	res := drive(t, &fakeServe{}, &wl, 2)
	if res.Failed != 2 || !strings.Contains(res.Failures[0], "cache miss") {
		t.Fatalf("failed=%d %v, want both misses to fail", res.Failed, res.Failures)
	}
	hit := &fakeServe{mutate: func(_ int64, r map[string]any) int { r["cache_hit"] = true; return 0 }}
	if res := drive(t, hit, &wl, 2); !res.Correct {
		t.Fatalf("hits on a hot workload failed: %v", res.Failures)
	}
}

// Two responses for one instance and n must carry one schedule.
func TestRepeatMustMatch(t *testing.T) {
	f := &fakeServe{mutate: func(seq int64, r map[string]any) int {
		if seq != 2 {
			return 0
		}
		// A valid but different schedule: everything one step later.
		var s struct {
			Version   int             `json:"version"`
			Placement json.RawMessage `json:"placement"`
			Items     []struct {
				Stage int `json:"stage"`
				Micro int `json:"micro"`
				Start int `json:"start"`
			} `json:"items"`
		}
		json.Unmarshal(r["schedule"].(json.RawMessage), &s)
		for i := range s.Items {
			s.Items[i].Start++
		}
		raw, _ := json.Marshal(s)
		r["schedule"] = json.RawMessage(raw)
		r["makespan"] = r["makespan"].(int) + 1
		return 0
	}}
	res := drive(t, f, &testWorkload, 4)
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d %v, want the shifted repeat to fail", res.Correct, res.Failed, res.Failures)
	}
}

// The header is parsed without walking the schedule, and falls back to a
// full decode when the server orders its fields differently.
func TestParseHeader(t *testing.T) {
	var scratch bytes.Buffer
	usual := []byte("{\n  \"cache_hit\": true,\n  \"n\": 8,\n  \"stats\": {\n    \"truncated\": true\n  },\n  \"schedule\": {\"items\": [1, 2]}\n}\n")
	reordered := []byte(`{"schedule": {"items": []}, "cache_hit": true, "n": 8, "stats": {"truncated": true}}`)
	for _, body := range [][]byte{usual, reordered} {
		h, err := parseHeader(body, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !h.CacheHit || h.N != 8 || !h.Stats.Truncated {
			t.Errorf("parseHeader(%s) = %+v", body, h)
		}
	}
	if _, err := parseHeader([]byte(`{"n": `), &scratch); err == nil {
		t.Error("parseHeader accepted a torn body")
	}
}

// A deadline-bounded cold phase ends on a pass boundary.
func TestPhaseEndsOnPassBoundary(t *testing.T) {
	ts := httptest.NewServer(&fakeServe{})
	defer ts.Close()
	srv := &server{base: ts.URL, hc: ts.Client()}
	clients := []*client{newClient(&testWorkload, 1, 0)}
	samples, err := phase(context.Background(), srv, &testWorkload, clients, 0, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 || len(samples)%testWorkload.block != 0 {
		t.Errorf("phase sent %d requests, want a whole number of passes of %d", len(samples), testWorkload.block)
	}
}
