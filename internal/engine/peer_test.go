package engine

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"tessel/internal/core"
	"tessel/internal/sched"
)

// cachedKey returns the engine's sole cache key — the peer interchange is
// keyed by the request key, so the codec tests need the real one.
func cachedKey(t testing.TB, e *Engine) string {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.entries) != 1 {
		t.Fatalf("engine holds %d entries, want exactly 1", len(e.entries))
	}
	for k := range e.entries {
		return k
	}
	panic("unreachable")
}

// TestPeerEntryRoundTrip: EncodePeerEntry → InsertPeerEntry on a fresh
// engine must reproduce the entry bit-for-bit (schedule fingerprint and
// all) and leave it cached, exactly like a one-entry snapshot restore.
func TestPeerEntryRoundTrip(t *testing.T) {
	src, fps := warmEngine(t, Options{}, mshape(t))
	key := cachedKey(t, src)

	data, found, err := src.EncodePeerEntry(key)
	if err != nil || !found {
		t.Fatalf("EncodePeerEntry(%s) = found %v, err %v", key, found, err)
	}
	if _, found, err := src.EncodePeerEntry("no-such-key"); err != nil || found {
		t.Fatalf("EncodePeerEntry(unknown) = found %v, err %v; want a clean miss", found, err)
	}

	dst := New(Options{})
	res, err := dst.InsertPeerEntry(key, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("InsertPeerEntry: %v", err)
	}
	if fp := sched.FingerprintSchedule(res.Full); fp != fps[0] {
		t.Fatalf("round-tripped schedule fingerprint %s != original %s", fp, fps[0])
	}
	if st := dst.Stats(); st.Entries != 1 {
		t.Fatalf("destination caches %d entries after insert, want 1", st.Entries)
	}
	// A live local entry wins over a peer copy: re-inserting returns the
	// already-cached result, not a second decode.
	again, err := dst.InsertPeerEntry(key, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("second InsertPeerEntry: %v", err)
	}
	if again != res {
		t.Fatal("re-insert decoded a fresh result instead of serving the live entry")
	}
}

// TestPeerEntryRejectsInvalid: every way a peer response can lie — wrong
// key, torn body, flipped payload byte, multi-entry smuggling — must be
// rejected before anything touches the cache.
func TestPeerEntryRejectsInvalid(t *testing.T) {
	src, _ := warmEngine(t, Options{}, mshape(t))
	key := cachedKey(t, src)
	data, found, err := src.EncodePeerEntry(key)
	if err != nil || !found {
		t.Fatalf("EncodePeerEntry: found %v, err %v", found, err)
	}

	cases := []struct {
		name string
		key  string
		body []byte
	}{
		{"wrong key", "some-other-key", data},
		{"torn body", key, data[:len(data)-7]},
		{"empty body", key, nil},
		{"flipped byte", key, flipLastByte(data)},
	}
	for _, tc := range cases {
		dst := New(Options{})
		if _, err := dst.InsertPeerEntry(tc.key, bytes.NewReader(tc.body)); err == nil {
			t.Errorf("%s: InsertPeerEntry accepted the response", tc.name)
		}
		if st := dst.Stats(); st.Entries != 0 {
			t.Errorf("%s: rejected response still cached %d entries", tc.name, st.Entries)
		}
	}

	// A multi-entry payload (a full snapshot) must not smuggle extra slots
	// through the single-entry interchange, even though it would pass the
	// checksum.
	multi, _ := warmEngine(t, Options{}, mshape(t), vshape(t))
	var buf bytes.Buffer
	if err := multi.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(Options{})
	if _, err := dst.InsertPeerEntry(key, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("InsertPeerEntry accepted a multi-entry payload")
	}
	if st := dst.Stats(); st.Entries != 0 {
		t.Fatalf("multi-entry payload still cached %d entries", st.Entries)
	}
}

func flipLastByte(data []byte) []byte {
	out := append([]byte(nil), data...)
	out[len(out)-1] ^= 0xff
	return out
}

// stubTier is a controllable PeerTier for engine-side integration tests.
type stubTier struct {
	res   *core.Result
	err   error
	block bool // honor ctx instead of returning immediately
	calls int
	stats PeerStats
}

func (s *stubTier) Fetch(ctx context.Context, fingerprint, key string) (*core.Result, error) {
	s.calls++
	if s.block {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return s.res, s.err
}

func (s *stubTier) Stats() PeerStats { return s.stats }

// TestPeerTierFailureFallsThrough: a tier that errors, misses, or hangs
// must never fail a request — the leader falls through to the cold search
// and the schedule matches a peerless engine's.
func TestPeerTierFailureFallsThrough(t *testing.T) {
	p := mshape(t)
	opts := core.Options{N: 8}
	baseline := searchFingerprint(t, p, opts)

	for _, tc := range []struct {
		name string
		tier *stubTier
	}{
		{"erroring tier", &stubTier{err: fmt.Errorf("injected tier failure")}},
		{"missing tier", &stubTier{}},
		{"hanging tier", &stubTier{block: true}},
	} {
		e := New(Options{PeerFetchBudget: 50 * time.Millisecond})
		e.SetPeerTier(tc.tier)
		res, info, err := e.Search(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("%s: search failed: %v", tc.name, err)
		}
		if info.PeerHit {
			t.Fatalf("%s: reported a peer hit", tc.name)
		}
		if fp := sched.FingerprintSchedule(res.Full); fp != baseline {
			t.Fatalf("%s: schedule fingerprint %s != baseline %s", tc.name, fp, baseline)
		}
		if tc.tier.calls != 1 {
			t.Fatalf("%s: tier consulted %d times, want 1", tc.name, tc.tier.calls)
		}
	}
}

// TestPeerStatsMerge: Stats() must surface the installed tier's counters
// verbatim (and zeros with no tier), since /v1/stats reads them from there.
func TestPeerStatsMerge(t *testing.T) {
	e := New(Options{})
	if st := e.Stats(); st.PeerHits != 0 || st.PeersHealthy != 0 {
		t.Fatalf("tierless engine reports peer stats: %+v", st)
	}
	e.SetPeerTier(&stubTier{stats: PeerStats{
		PeerHits: 7, PeerMisses: 6, PeerErrors: 5, PeerRetries: 4, BreakerOpen: 3, PeersHealthy: 2,
	}})
	st := e.Stats()
	if st.PeerHits != 7 || st.PeerMisses != 6 || st.PeerErrors != 5 ||
		st.PeerRetries != 4 || st.BreakerOpen != 3 || st.PeersHealthy != 2 {
		t.Fatalf("tier stats not merged: %+v", st)
	}
	e.SetPeerTier(nil)
	if st := e.Stats(); st.PeerHits != 0 {
		t.Fatalf("removed tier still reports stats: %+v", st)
	}
}

// reentrantTier is a PeerTier whose Stats calls back into the engine (it
// reports the engine's cache occupancy); inside stops the nested Engine.Stats
// from recursing into it forever.
type reentrantTier struct {
	stubTier
	eng    *Engine
	inside bool
}

func (r *reentrantTier) Stats() PeerStats {
	if r.inside {
		return PeerStats{}
	}
	r.inside = true
	defer func() { r.inside = false }()
	return PeerStats{PeersHealthy: r.eng.Stats().Entries}
}

// TestStatsCallsTierOutsideLock: Engine.Stats must not hold the engine's
// mutex across PeerTier.Stats, so a tier that calls back into the engine
// cannot deadlock it.
func TestStatsCallsTierOutsideLock(t *testing.T) {
	e, _ := warmEngine(t, Options{}, vshape(t))
	e.SetPeerTier(&reentrantTier{eng: e})
	done := make(chan Stats, 1)
	go func() { done <- e.Stats() }()
	select {
	case st := <-done:
		if st.PeersHealthy != 1 || st.Entries != 1 {
			t.Fatalf("stats through a re-entrant tier: %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Engine.Stats deadlocked on a tier that calls back into the engine")
	}
}
