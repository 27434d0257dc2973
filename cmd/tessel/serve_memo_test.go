package main

// The request memo in front of decodeSearchRequest: what it holds is exact,
// its own and never written, and it stays within its bound.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tessel"
)

// memoEntryFor is the memo's entry for body, or nil.
func memoEntryFor(m *requestMemo, body []byte) *memoEntry {
	for i := range m.slots {
		for j := range m.slots[i] {
			if e := m.slots[i][j].Load(); e != nil && bytes.Equal(e.body, body) {
				return e
			}
		}
	}
	return nil
}

// memoHeld counts the memo's entries.
func memoHeld(m *requestMemo) int {
	n := 0
	for i := range m.slots {
		for j := range m.slots[i] {
			if m.slots[i][j].Load() != nil {
				n++
			}
		}
	}
	return n
}

// TestServeMemoPlacementReadOnly sends memoized bodies down every serve path
// that takes a request's placement — a cold miss, an exact-N hit, a hit that
// extends, a hit below N_R and a degraded search — from several goroutines
// at once, and after each path compares the memo's placement with a fresh
// decode of its body: every request of a body shares that placement, so
// nothing on any path may write it.
func TestServeMemoPlacementReadOnly(t *testing.T) {
	// One cold search per tenant: the second placement's search is degraded.
	s := newTestServer(t, "-tenant-rate", "1e-9", "-tenant-burst", "1")
	h := s.mux()
	m, err := tessel.NewMShape(tessel.ShapeConfig{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	k, err := tessel.NewKShape(tessel.ShapeConfig{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	body := func(p *tessel.Placement, n int, degraded bool) []byte {
		b := searchBody(t, p, n, 0)
		return fmt.Appendf(b[:len(b)-2], `,"allow_degraded":%t},"tenant":"t"}`, degraded)
	}
	const posters = 4
	for _, c := range []struct {
		path          string
		body          []byte
		hit, degraded bool
	}{
		{"cold miss", body(m, 12, false), false, false},
		{"exact-N hit", body(m, 12, false), true, false},
		{"hit + extend", body(m, 40, false), true, false},
		{"hit below N_R", body(m, 3, false), true, false},
		{"degraded", body(k, 8, true), false, true},
	} {
		var wg sync.WaitGroup
		resps := make([]searchResponse, posters)
		for g := range resps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/search", bytes.NewReader(c.body)))
				if w.Code != 200 {
					t.Errorf("%s: status %d: %s", c.path, w.Code, w.Body.String())
					return
				}
				if err := json.Unmarshal(w.Body.Bytes(), &resps[g]); err != nil {
					t.Errorf("%s: %v", c.path, err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		hits := 0
		for _, r := range resps {
			if r.CacheHit {
				hits++
			}
			if r.Degraded != c.degraded {
				t.Errorf("%s: degraded %t", c.path, r.Degraded)
			}
		}
		// A cold miss or a degraded search is one leader; its followers share it.
		if c.hit && hits != posters || !c.hit && hits != 0 {
			t.Errorf("%s: %d of %d responses were cache hits", c.path, hits, posters)
		}
		e := memoEntryFor(s.memo, c.body)
		if e == nil {
			t.Fatalf("%s: body not memoized", c.path)
		}
		fresh, err := decodeSearchRequest(c.body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.req, fresh) {
			t.Fatalf("%s: the memoized request changed:\n got %+v\nwant %+v", c.path, e.req.Placement, fresh.Placement)
		}
	}
}

// TestServeMemoOwnsBody memoizes body A, lets a larger body B fill the same
// buffer, and asks for A again: A's entry must still hold A's bytes, the
// repeat must be a hit, and its response must be the one a fresh decode of A
// gets.
func TestServeMemoOwnsBody(t *testing.T) {
	ps := hotPlacements(t)
	a := searchBody(t, ps[0], 12, 0) // v-shape
	b := searchBody(t, ps[4], 12, 0) // nn-shape, a longer body
	if len(b) <= len(a) {
		t.Fatalf("body B (%d bytes) not longer than A (%d)", len(b), len(a))
	}

	// The memo alone, over one buffer the test controls.
	m := newRequestMemo()
	buf := bytes.Clone(a)
	first, err := m.decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf[:0], b...)
	if _, err := m.decode(buf); err != nil {
		t.Fatal(err)
	}
	if e := memoEntryFor(m, a); e == nil || e.req.Placement != first.Placement {
		t.Fatal("overwriting the decoded buffer lost A's entry")
	}
	if again, err := m.decode(a); err != nil || again.Placement != first.Placement {
		t.Fatalf("A again: %v; hit %t", err, again.Placement == first.Placement)
	}

	// Through the handler, whose request buffers are pooled.
	post := func(s *server, body []byte) string {
		w := httptest.NewRecorder()
		s.mux().ServeHTTP(w, httptest.NewRequest("POST", "/v1/search", bytes.NewReader(body)))
		if w.Code != 200 {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		return w.Body.String()
	}
	s := newTestServer(t)
	post(s, a)
	post(s, b)
	if e := memoEntryFor(s.memo, a); e == nil {
		t.Fatal("A's entry lost to B's request")
	}
	got := post(s, a)
	// The same engine behind an empty memo decodes A afresh. (Another server
	// would answer with other timings in the stats of its own cold search.)
	s.memo = newRequestMemo()
	if want := post(s, a); got != want {
		t.Fatalf("A after B differs from A decoded afresh\n got: %.300s\nwant: %.300s", got, want)
	}
}

// TestRequestMemoBounded: the memo never holds more than memoEntries
// entries, a body over memoMaxBody or one that failed to decode.
func TestRequestMemoBounded(t *testing.T) {
	m := newRequestMemo()
	p := hotPlacements(t)[0]
	for n := 1; n <= 4*memoEntries; n++ {
		if _, err := m.decode(searchBody(t, p, n, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if held := memoHeld(m); held > memoEntries || int(m.entries.Load()) != held {
		t.Fatalf("%d entries held, %d counted, bound %d", held, m.entries.Load(), memoEntries)
	}

	m = newRequestMemo()
	// Padding after the object is accepted by the decode, never stored.
	long := append(searchBody(t, p, 8, 0), strings.Repeat(" ", memoMaxBody)...)
	if _, err := m.decode(long); err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{long, []byte(`{"options":{"n":4}}`), []byte(`{not json`)} {
		for range 2 {
			m.decode(body)
		}
	}
	if held := memoHeld(m); held != 0 {
		t.Fatalf("%d entries held from an oversized or refused body", held)
	}
}
