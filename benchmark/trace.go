package main

// Spans of the traced run. They are recorded from the benchmark's own
// files, around the calls into each layer: over HTTP by the load generator,
// and in-process by the layer probe, which replays the same requests under
// the same request ids through the layers' public functions. Spans inside
// the server are a later change.

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
)

// span is one timed interval. Parent is the ID of the span that caused it
// ("" for a root); a span's self time is its duration minus its children's.
// A span marked Sibling re-runs part of its parent's work on the same input
// instead of nesting inside it in time, and counts as a child all the same.
type span struct {
	ID        string  `json:"id"`
	Name      string  `json:"name"`
	StartUS   float64 `json:"start_us"`
	EndUS     float64 `json:"end_us"`
	Parent    string  `json:"parent,omitempty"`
	RequestID string  `json:"request_id"`
	Sibling   bool    `json:"sibling,omitempty"`
}

func (s span) durMS() float64 { return (s.EndUS - s.StartUS) / 1000 }

// httpSpans turns one measured request into its spans: request covers
// send → header check done, with the round trip to the response headers,
// the body read and the check (outside the request's clock) as children.
func httpSpans(smp *sample) []span {
	us := func(ns int64) float64 { return float64(ns) / 1000 }
	checked := us(int64(smp.checked))
	id := smp.req.id
	root := id + "#request"
	return []span{
		{ID: root, Name: "request", StartUS: us(int64(smp.start)), EndUS: checked, RequestID: id},
		{ID: id + "#roundtrip", Name: "http.roundtrip", StartUS: us(int64(smp.start)), EndUS: us(int64(smp.hdr)), Parent: root, RequestID: id},
		{ID: id + "#read_body", Name: "http.read_body", StartUS: us(int64(smp.hdr)), EndUS: us(int64(smp.end)), Parent: root, RequestID: id},
		{ID: id + "#verify", Name: "verify", StartUS: us(int64(smp.end)), EndUS: checked, Parent: root, RequestID: id},
	}
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one complete event per span, one track per
// request id.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	ids := make([]string, 0)
	for _, s := range spans {
		if _, ok := tids[s.RequestID]; !ok {
			tids[s.RequestID] = 0
			ids = append(ids, s.RequestID)
		}
	}
	sort.Strings(ids)
	for i, id := range ids {
		tids[id] = i + 1
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		// The generator's span ids are <request id>#<name>, the layer
		// probe's <request id>@<name>.
		cat := "http"
		if s.Sibling {
			cat = "sibling"
		} else if strings.Contains(s.ID, "@") {
			cat = "replay"
		}
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X", TS: s.StartUS, Dur: s.EndUS - s.StartUS, PID: 1, TID: tids[s.RequestID],
			Args: map[string]any{"request_id": s.RequestID, "span_id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
