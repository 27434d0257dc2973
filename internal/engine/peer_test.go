package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"tessel/internal/core"
	"tessel/internal/placement"
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

// TestPeerEntryRoundTrip: EncodePeerEntry → DecodePeerEntry must reproduce
// the entry bit-for-bit (schedule fingerprint and all) and, unlike a restore,
// cache nothing: the singleflight leader that asked inserts what it serves.
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

	res, err := DecodePeerEntry(key, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("DecodePeerEntry: %v", err)
	}
	if fp := sched.FingerprintSchedule(res.Full); fp != fps[0] {
		t.Fatalf("round-tripped schedule fingerprint %s != original %s", fp, fps[0])
	}
	if st := src.Stats(); st.Entries != 1 {
		t.Fatalf("source caches %d entries after a decode, want 1", st.Entries)
	}
}

// TestPeerEntryRejectsInvalid: every way a peer response can lie — wrong
// key, torn body, flipped payload byte, multi-entry smuggling — must be
// rejected.
func TestPeerEntryRejectsInvalid(t *testing.T) {
	src, _ := warmEngine(t, Options{}, mshape(t))
	key := cachedKey(t, src)
	data, found, err := src.EncodePeerEntry(key)
	if err != nil || !found {
		t.Fatalf("EncodePeerEntry: found %v, err %v", found, err)
	}
	// A multi-entry payload (a full snapshot) must not smuggle extra slots
	// through the single-entry interchange, even though it would pass the
	// checksum.
	multi, _ := warmEngine(t, Options{}, mshape(t), vshape(t))

	cases := []struct {
		name string
		key  string
		body []byte
	}{
		{"wrong key", "some-other-key", data},
		{"torn body", key, data[:len(data)-7]},
		{"empty body", key, nil},
		{"flipped byte", key, flipLastByte(data)},
		{"multi-entry payload", key, snapshotBytes(t, multi)},
	}
	for _, tc := range cases {
		if _, err := DecodePeerEntry(tc.key, bytes.NewReader(tc.body)); err == nil {
			t.Errorf("%s: DecodePeerEntry accepted the response", tc.name)
		}
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

// smallPeerEntry returns the key and peer payload of a searched 2-device
// V-shape entry, whose repetend has N_R 2 and assignment [1 1 1 0].
func smallPeerEntry(t testing.TB) (string, []byte) {
	t.Helper()
	p, err := placement.VShape(placement.Config{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := warmEngine(t, Options{}, p)
	key := cachedKey(t, src)
	data, _, err := src.EncodePeerEntry(key)
	if err != nil {
		t.Fatal(err)
	}
	return key, data
}

// offsetRepetends edit a repetend so that every index stays below N_R and
// Property 4.2 holds, but N_R is no longer one more than the largest index
// (N_R raised by one), or the smallest index is no longer 0 (N_R raised and
// every index shifted up by one). No search returns either.
var offsetRepetends = []func(*snapshotRepetend){
	func(r *snapshotRepetend) { r.NR++ },
	func(r *snapshotRepetend) {
		r.NR++
		for i := range r.Assign {
			r.Assign[i]++
		}
	},
}

// TestPeerEntryRejectsOffsetRepetend: a peer entry whose repetend has a
// raised N_R, or indices shifted off 0, is refused. Each passes every other
// check; served, it would give a request with no n 3·N_R micro-batches of a
// repetend size the search never chose.
func TestPeerEntryRejectsOffsetRepetend(t *testing.T) {
	key, data := smallPeerEntry(t)
	for i, edit := range offsetRepetends {
		bad := tampered(t, data, func(_ *sched.Placement, e *snapshotEntry) { edit(&e.Repetend) })
		if _, err := DecodePeerEntry(key, bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "indices span") {
			t.Errorf("edit %d: DecodePeerEntry err %v, want the index span refused", i, err)
		}
	}
}

// FuzzDecodePeerEntry feeds the peer entry decoder what a lying peer could
// send for a key this replica asked for. The fuzzer's bytes are framed with a
// matching checksum header unless raw is set, so that mutations of the body
// get past the checksum to the entry's own checks. No input may panic, and an
// accepted entry must serve: its schedule holds each of the N·K blocks once
// and validates, and it extends to another N. The seeds include repetends
// with a period below 1, a negative start, a gap of 10^12 periods, a start
// whose finish wraps, a raised N_R and indices shifted off 0, and the v2 and
// v3 files an older SnapshotTo wrote.
func FuzzDecodePeerEntry(f *testing.F) {
	// A small entry, so that a mutation more often lands on a field that matters.
	key, data := smallPeerEntry(f)
	parent, err := os.ReadFile("testdata/parent_v2.snap")
	if err != nil {
		f.Fatal(err)
	}
	parentV3, err := os.ReadFile("testdata/parent_v3.snap")
	if err != nil {
		f.Fatal(err)
	}
	body := func(b []byte) []byte { return b[bytes.IndexByte(b, '\n')+1:] }
	f.Add(body(data), false)
	f.Add(body(data)[:len(body(data))/2], false) // torn
	f.Add(body(parent), false)
	f.Add(data, true)
	f.Add(parent, true)
	f.Add(parentV3, true)
	// A repetend Unroll could not order (period 0 or below, a start before
	// 0), one whose starts lie 10^12 periods apart and one whose times wrap:
	// each must be refused without dividing by zero or walking the windows
	// between. So must the
	// offset repetends, which would serve an N_R the search never chose.
	for _, edit := range append([]func(*snapshotRepetend){
		func(r *snapshotRepetend) { r.Period = 0 },
		func(r *snapshotRepetend) { r.Period = -r.Period },
		func(r *snapshotRepetend) { r.Starts[0] = -1 },
		func(r *snapshotRepetend) { r.Starts[0] += 1e12 * r.Period },
		func(r *snapshotRepetend) { r.Starts[0] = math.MaxInt - 1 },
	}, offsetRepetends...) {
		f.Add(tampered(f, data, func(_ *sched.Placement, e *snapshotEntry) { edit(&e.Repetend) }), true)
	}
	f.Fuzz(func(t *testing.T, in []byte, raw bool) {
		if !raw {
			in = withChecksumHeader(in)
		}
		res, err := DecodePeerEntry(key, bytes.NewReader(in))
		if err != nil {
			return
		}
		full, k := res.Full, res.Placement.K()
		if res.N < 1 || full.Len() != res.N*k || slices.ContainsFunc(full.Items, func(it sched.Item) bool { return it.Micro >= res.N }) {
			t.Fatalf("accepted a schedule of %d blocks for N = %d, K = %d", full.Len(), res.N, k)
		}
		if err := full.Validate(sched.ValidateOptions{Memory: sched.Unbounded}); err != nil {
			t.Fatalf("accepted an invalid schedule: %v", err)
		}
		if _, err := core.Extend(context.Background(), res, res.N+1, core.Options{SolverNodes: 1000}); err != nil {
			t.Fatalf("accepted an entry that does not extend to N = %d: %v", res.N+1, err)
		}
	})
}
