package main

// The closed-loop load generator: each client sends its next request only
// after the previous response's last byte arrived. A request's clock covers
// send → last body byte; everything the generator does with the response
// afterwards (header check, keeping the body for verification) is outside
// it, though it does delay that client's next request.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// responseHeader is every field of a /v1/search response except the
// schedule itself.
type responseHeader struct {
	Fingerprint string `json:"fingerprint"`
	CacheHit    bool   `json:"cache_hit"`
	Shared      bool   `json:"shared"`
	Degraded    bool   `json:"degraded"`
	PeerHit     bool   `json:"peer_hit"`
	N           int    `json:"n"`
	Makespan    int    `json:"makespan"`
	LowerBound  int    `json:"lower_bound"`
	Period      int    `json:"period"`
	NR          int    `json:"nr"`
	Stats       struct {
		Assignments       int   `json:"assignments"`
		Solved            int   `json:"solved"`
		Pruned            int   `json:"pruned"`
		NRSwept           int   `json:"nr_swept"`
		SolverNodes       int64 `json:"solver_nodes"`
		PeriodProbes      int64 `json:"period_probes"`
		PeriodRelaxations int64 `json:"period_relaxations"`
		LocalSearchSwaps  int64 `json:"local_search_swaps"`
		Truncated         bool  `json:"truncated"`
	} `json:"stats"`
}

var scheduleKey = []byte(`"schedule":`)

// headerKeys are the response fields the per-response check reads.
var headerKeys = []string{"cache_hit", "shared", "degraded", "peer_hit", "n", "makespan", "lower_bound", "period", "stats"}

// parseHeader decodes the response's fields without walking the schedule,
// which is up to a megabyte: the server writes "schedule" last, so the bytes
// before that key, closed with a brace, are a JSON object of their own. The
// shortcut is taken only when that object holds every field the check
// reads; a server that orders its fields differently gets the whole body
// decoded instead.
func parseHeader(body []byte, scratch *bytes.Buffer) (responseHeader, error) {
	var h responseHeader
	if i := bytes.Index(body, scheduleKey); i > 0 {
		scratch.Reset()
		scratch.Write(bytes.TrimRight(body[:i], " \t\r\n,"))
		scratch.WriteByte('}')
		var fields map[string]json.RawMessage
		complete := json.Unmarshal(scratch.Bytes(), &fields) == nil
		for _, key := range headerKeys {
			_, ok := fields[key]
			complete = complete && ok
		}
		if complete {
			err := json.Unmarshal(scratch.Bytes(), &h)
			return h, err
		}
	}
	err := json.Unmarshal(body, &h)
	return h, err
}

// checkHeader is the per-response check: the right serve path for the
// workload, an untruncated search, the requested n, and schedule quality no
// worse than the catalog's golden values.
func checkHeader(wl *workload, req *request, h *responseHeader) error {
	switch {
	case h.Degraded:
		return fmt.Errorf("degraded response")
	case h.PeerHit:
		return fmt.Errorf("peer_hit on a single replica")
	case wl.kind == kindCold && (h.CacheHit || h.Shared):
		return fmt.Errorf("cache_hit=%v shared=%v on a cold workload", h.CacheHit, h.Shared)
	case wl.kind == kindHot && !req.primer && !h.CacheHit:
		return fmt.Errorf("cache miss on a primed hot workload")
	case h.Stats.Truncated:
		return fmt.Errorf("stats.truncated")
	case h.N != req.n:
		return fmt.Errorf("n = %d, asked for %d", h.N, req.n)
	case h.LowerBound != req.inst.lb:
		return fmt.Errorf("lower_bound = %d, catalog says %d", h.LowerBound, req.inst.lb)
	case h.Period > req.inst.period:
		return fmt.Errorf("period = %d, above the golden %d", h.Period, req.inst.period)
	case h.Period < h.LowerBound:
		return fmt.Errorf("period = %d, below the lower bound %d", h.Period, h.LowerBound)
	case h.Makespan <= 0:
		return fmt.Errorf("makespan = %d", h.Makespan)
	}
	return nil
}

// sample is one measured request. Times are offsets from the phase start.
type sample struct {
	req *request
	// start → hdr is the round trip to the response headers, hdr → end the
	// body read; checked is when the per-response check finished.
	start, hdr, end, checked time.Duration
	ok                       bool
	status                   int // 0 on a transport error
	header                   responseHeader
	respBytes                int
}

// verifyKey names the responses that must carry the same schedule.
type verifyKey struct {
	inst string
	n    int
}

// kept is a response body held back for full verification after the window.
type kept struct {
	req  *request
	body *bytes.Buffer
}

// client is one closed-loop sender with its own generator, buffers and
// verification state, so the send loop shares nothing with other clients.
type client struct {
	gen     *generator
	buf     *bytes.Buffer // the body being read; swapped with kept bodies, never copied
	scratch bytes.Buffer
	// first and last are the first and the most recent body per key: the
	// first is verified in full, the last must carry the same schedule.
	first, last map[verifyKey]*kept
	makespan    map[verifyKey]int
	samples     []sample
	failures    []string
	// trace turns span recording on; spans are kept in memory.
	trace bool
	spans []span
}

func newClient(wl *workload, seed int64, id int) *client {
	return &client{
		gen:      newGenerator(wl, seed, id),
		buf:      new(bytes.Buffer),
		first:    map[verifyKey]*kept{},
		last:     map[verifyKey]*kept{},
		makespan: map[verifyKey]int{},
	}
}

// do sends one request and checks its response. The returned sample's ok
// says whether the operation passed the per-response check.
func (c *client) do(s *server, wl *workload, req *request, origin time.Time) sample {
	smp, err := c.roundTrip(s, req, origin)
	if err == nil {
		err = checkHeader(wl, req, &smp.header)
	}
	key := verifyKey{req.inst.name, req.n}
	if want, seen := c.makespan[key]; err == nil && seen && want != smp.header.Makespan {
		err = fmt.Errorf("makespan = %d, an earlier response for the same instance and n said %d", smp.header.Makespan, want)
	}
	if err != nil {
		c.failures = append(c.failures, fmt.Sprintf("%s (%s n=%d): %v", req.id, req.inst.name, req.n, err))
	} else {
		c.makespan[key] = smp.header.Makespan
		c.keep(key, req)
		smp.ok = true
	}
	smp.checked = time.Since(origin)
	if c.trace {
		c.spans = append(c.spans, httpSpans(&smp)...)
	}
	return smp
}

// roundTrip posts the request, reads the whole response into c.buf and
// decodes its header. The sample's clock stops at the last body byte.
func (c *client) roundTrip(s *server, req *request, origin time.Time) (sample, error) {
	smp := sample{req: req, start: time.Since(origin)}
	resp, err := s.hc.Post(s.base+"/v1/search", "application/json", bytes.NewReader(req.body))
	if err != nil {
		smp.end = time.Since(origin)
		return smp, fmt.Errorf("transport: %w", err)
	}
	smp.hdr = time.Since(origin)
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	smp.end = time.Since(origin)
	smp.respBytes = c.buf.Len()
	smp.status = resp.StatusCode
	if err != nil {
		return smp, fmt.Errorf("read body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return smp, fmt.Errorf("status %d: %.200s", resp.StatusCode, c.buf.Bytes())
	}
	if smp.header, err = parseHeader(c.buf.Bytes(), &c.scratch); err != nil {
		return smp, fmt.Errorf("decode response: %w", err)
	}
	return smp, nil
}

// keep holds the current body back for verification by swapping buffers
// with the body it replaces.
func (c *client) keep(key verifyKey, req *request) {
	if c.first[key] == nil {
		c.first[key] = &kept{req: req, body: c.buf}
		c.buf = new(bytes.Buffer)
		return
	}
	k := c.last[key]
	if k == nil {
		k = &kept{body: new(bytes.Buffer)}
		c.last[key] = k
	}
	k.req, k.body, c.buf = req, c.buf, k.body
}

// phase runs every client until its stop condition: count requests each
// when count > 0, otherwise until the deadline, checked only where a block
// may begin so a cold pass is never cut short. It returns the samples of
// all clients ordered by completion time.
func phase(ctx context.Context, s *server, wl *workload, clients []*client, count int, d time.Duration) ([]sample, error) {
	origin := time.Now()
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		c.samples = c.samples[:0]
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for sent := 0; ctx.Err() == nil; sent++ {
				if count > 0 && sent >= count {
					return
				}
				boundary := wl.kind != kindCold || sent%wl.block == 0
				if count == 0 && boundary && time.Since(origin) >= d {
					return
				}
				req, err := c.gen.next()
				if err != nil {
					errs[i] = err
					return
				}
				c.samples = append(c.samples, c.do(s, wl, req, origin))
			}
		}(i, c)
	}
	wg.Wait()
	var all []sample
	for i, c := range clients {
		if errs[i] != nil {
			return nil, errs[i]
		}
		all = append(all, c.samples...)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].end < all[j].end })
	return all, nil
}
