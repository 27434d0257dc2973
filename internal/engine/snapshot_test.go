package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"tessel/internal/core"
	"tessel/internal/faultpoint"
	"tessel/internal/placement"
	"tessel/internal/sched"
)

// logRecorder captures engine warnings so tests can assert on them; the
// mutex matters because degraded and snapshot paths may log from multiple
// goroutines under -race.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (r *logRecorder) logf(format string, args ...any) {
	r.mu.Lock()
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *logRecorder) count(substr string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, l := range r.lines {
		if strings.Contains(l, substr) {
			n++
		}
	}
	return n
}

// warmEngine runs cold searches for the given placements and returns the
// engine together with the full-schedule fingerprint of each result.
func warmEngine(t testing.TB, opts Options, ps ...*sched.Placement) (*Engine, []string) {
	t.Helper()
	e := New(opts)
	fps := make([]string, len(ps))
	for i, p := range ps {
		res, info, err := e.Search(context.Background(), p, core.Options{N: 8})
		if err != nil {
			t.Fatalf("cold search %d: %v", i, err)
		}
		if info.Hit || info.Shared {
			t.Fatalf("cold search %d served warm: %+v", i, info)
		}
		fps[i] = sched.FingerprintSchedule(res.Full)
	}
	return e, fps
}

// snapshotBytes serializes e's cache and returns the raw snapshot.
func snapshotBytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip is the headline persistence property: every entry
// written by SnapshotTo restores into a fresh engine, and the restored
// entries serve byte-identical schedules (same canonical fingerprint) as
// the originals — as cache hits, without re-running the sweep.
func TestSnapshotRoundTrip(t *testing.T) {
	ps := []*sched.Placement{mshape(t), vshape(t)}
	e, fps := warmEngine(t, Options{}, ps...)
	snap := snapshotBytes(t, e)

	fresh := New(Options{})
	n, err := fresh.RestoreFrom(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ps) {
		t.Fatalf("restored %d entries, want %d", n, len(ps))
	}
	st := fresh.Stats()
	if st.Restored != uint64(len(ps)) || st.Entries != len(ps) {
		t.Fatalf("stats after restore: %+v", st)
	}
	for i, p := range ps {
		res, info, err := fresh.Search(context.Background(), p, core.Options{N: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !info.Hit {
			t.Fatalf("placement %d missed the restored cache: %+v", i, info)
		}
		if got := sched.FingerprintSchedule(res.Full); got != fps[i] {
			t.Fatalf("placement %d: restored schedule fingerprint %s != original %s", i, got, fps[i])
		}
	}
	// The restore ran zero searches: hits only.
	if st2 := fresh.Stats(); st2.Misses != 0 || st2.Hits != uint64(len(ps)) {
		t.Fatalf("restored engine ran a search: %+v", st2)
	}
}

// TestSnapshotFileRoundTrip drives the file layer: SaveSnapshot then
// LoadSnapshot round-trips, a missing file is a silent cold start, and no
// temp file is left behind.
func TestSnapshotFileRoundTrip(t *testing.T) {
	e, _ := warmEngine(t, Options{}, mshape(t))
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}

	rec := &logRecorder{}
	fresh := New(Options{Logf: rec.logf})
	if n := fresh.LoadSnapshot(path); n != 1 {
		t.Fatalf("LoadSnapshot = %d, want 1", n)
	}
	if missing := New(Options{Logf: rec.logf}); missing.LoadSnapshot(filepath.Join(t.TempDir(), "absent.snap")) != 0 {
		t.Fatal("missing snapshot restored entries")
	}
	if len(rec.lines) != 0 {
		t.Fatalf("clean load and first boot logged warnings: %v", rec.lines)
	}
}

// TestSnapshotCorruptAndTorn flips one byte (corrupt) and truncates the
// payload (torn write): RestoreFrom must report an error and restore
// nothing, and LoadSnapshot must degrade to a logged cold start — never an
// error exit, never a partial cache.
func TestSnapshotCorruptAndTorn(t *testing.T) {
	e, _ := warmEngine(t, Options{}, mshape(t))
	snap := snapshotBytes(t, e)

	corrupt := bytes.Clone(snap)
	corrupt[len(corrupt)-2] ^= 0x41
	torn := snap[:len(snap)/2]

	for name, b := range map[string][]byte{"corrupt": corrupt, "torn": torn} {
		fresh := New(Options{})
		n, err := fresh.RestoreFrom(bytes.NewReader(b))
		if err == nil || n != 0 {
			t.Fatalf("%s snapshot: restored %d entries, err=%v", name, n, err)
		}
		if fresh.Stats().Entries != 0 {
			t.Fatalf("%s snapshot: cache not empty after failed restore", name)
		}

		rec := &logRecorder{}
		cold := New(Options{Logf: rec.logf})
		path := filepath.Join(t.TempDir(), "cache.snap")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := cold.LoadSnapshot(path); got != 0 {
			t.Fatalf("%s snapshot: LoadSnapshot = %d, want 0", name, got)
		}
		if rec.count("starting cold") != 1 {
			t.Fatalf("%s snapshot: cold start not logged: %v", name, rec.lines)
		}
		// The engine must still work cold.
		if _, info, err := cold.Search(context.Background(), mshape(t), core.Options{N: 4}); err != nil || info.Hit {
			t.Fatalf("%s snapshot: engine unusable after cold start: info=%+v err=%v", name, info, err)
		}
	}
}

// TestSnapshotVersionMismatch: a snapshot from a future format version —
// or one with a malformed version token, which prefix parsing (the old
// Sscanf) silently accepted as the token's numeric prefix — is refused
// outright rather than half-parsed.
func TestSnapshotVersionMismatch(t *testing.T) {
	e, _ := warmEngine(t, Options{}, mshape(t))
	snap := snapshotBytes(t, e)
	cur := fmt.Sprintf(" v%d ", snapshotVersion)
	for _, tok := range []string{
		fmt.Sprintf("v%d", snapshotVersion+1),      // future version
		fmt.Sprintf("v%dgarbage", snapshotVersion), // trailing junk
		fmt.Sprintf("v+%d", snapshotVersion),       // sign (Atoi accepts it)
		fmt.Sprintf("v0%d", snapshotVersion),       // leading zero
		fmt.Sprintf("%d", snapshotVersion),         // missing v prefix
	} {
		bad := bytes.Replace(snap, []byte(cur), []byte(" "+tok+" "), 1)
		if n, err := New(Options{}).RestoreFrom(bytes.NewReader(bad)); err == nil || n != 0 {
			t.Fatalf("version token %q: restored %d entries, err=%v", tok, n, err)
		}
	}
}

// TestSnapshotRestoreEvictionOrder is the regression test for the recency
// bug class the v2 format closes: restore must rebuild the exact LRU order
// — even from a snapshot whose entries array was reordered by a rewrite,
// which under v1's implicit file-order encoding silently became the new
// recency — so the first eviction after a restore removes the entry that
// was coldest *before* the snapshot, not whichever one the file order left
// at the back.
func TestSnapshotRestoreEvictionOrder(t *testing.T) {
	// mshape searched first, vshape second: vshape is MRU, mshape is LRU.
	e, _ := warmEngine(t, Options{}, mshape(t), vshape(t))
	snap := snapshotBytes(t, e)

	// Simulate a rewrite that shuffles the entries array (the v1 failure
	// mode) and re-seal the body; the Recency stamps still record the true
	// pre-snapshot order.
	nl := bytes.IndexByte(snap, '\n')
	var body snapshotBody
	if err := json.Unmarshal(snap[nl+1:], &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Entries) != 2 {
		t.Fatalf("snapshot holds %d entries, want 2", len(body.Entries))
	}
	body.Entries[0], body.Entries[1] = body.Entries[1], body.Entries[0]
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := withChecksumHeader(payload)

	fresh := New(Options{CacheSize: 2})
	if n, err := fresh.RestoreFrom(bytes.NewReader(shuffled)); err != nil || n != 2 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}

	// Evict immediately: a third cold search displaces exactly one entry,
	// and the victim must be the pre-snapshot LRU (mshape) — so vshape
	// must still be a hit afterwards.
	third, err := placement.MShape(placement.Config{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, info, err := fresh.Search(context.Background(), third, core.Options{N: 4}); err != nil || info.Hit {
		t.Fatalf("third search: info=%+v err=%v", info, err)
	}
	st := fresh.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after eviction: %+v", st)
	}
	if _, info, err := fresh.Search(context.Background(), vshape(t), core.Options{N: 8}); err != nil || !info.Hit {
		t.Fatalf("pre-snapshot MRU entry was the eviction victim: info=%+v err=%v", info, err)
	}
}

// TestSnapshotV1IsColdStart: a v1-format snapshot (the one-PR-lived format
// without recency stamps) is an unsupported version like any other — an
// error, nothing restored, and an engine that still serves.
func TestSnapshotV1IsColdStart(t *testing.T) {
	e, _ := warmEngine(t, Options{}, mshape(t), vshape(t))
	snap := snapshotBytes(t, e)

	nl := bytes.IndexByte(snap, '\n')
	var body snapshotBody
	if err := json.Unmarshal(snap[nl+1:], &body); err != nil {
		t.Fatal(err)
	}
	body.Version = 1
	for i := range body.Entries {
		body.Entries[i].Recency = 0
	}
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	v1 := fmt.Appendf(nil, "%s v1 %s\n", snapshotMagic, hex.EncodeToString(sum[:]))
	v1 = append(v1, payload...)

	fresh := New(Options{})
	if n, err := fresh.RestoreFrom(bytes.NewReader(v1)); err == nil || n != 0 {
		t.Fatalf("v1 snapshot: restored %d entries, err=%v", n, err)
	}
	if st := fresh.Stats(); st.Entries != 0 || st.Restored != 0 {
		t.Fatalf("v1 snapshot left state behind: %+v", st)
	}
	if _, info, err := fresh.Search(context.Background(), vshape(t), core.Options{N: 8}); err != nil || info.Hit {
		t.Fatalf("engine unusable after refusing a v1 snapshot: info=%+v err=%v", info, err)
	}
}

// withChecksumHeader frames a snapshot payload the way writeSnapshotPayload
// does, for tests that assemble or edit a payload by hand.
func withChecksumHeader(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(fmt.Appendf(nil, "%s v%d %s\n", snapshotMagic, snapshotVersion, hex.EncodeToString(sum[:])), payload...)
}

// TestSnapshotParentFileRestores pins the on-disk contract against a file an
// older writer produced: testdata/parent_v2.snap was written by SnapshotTo at
// the commit before snapshot items moved to sched.ItemJSON (m-shape then
// v-shape, 4 devices, N = 8), when the solver still had its root-split engine
// and entries carried its two counters and the worker count. It must restore
// both entries and serve a hit, and the re-snapshot must be that file with
// exactly those keys gone — v2 readers were never strict, so nothing else
// about the format moved. One of its entries, framed alone the way a peer
// replica of that age would send it, must go in through InsertPeerEntry too.
func TestSnapshotParentFileRestores(t *testing.T) {
	parent, err := os.ReadFile("testdata/parent_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	if n, err := e.RestoreFrom(bytes.NewReader(parent)); err != nil || n != 2 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	payload := parent[bytes.IndexByte(parent, '\n')+1:]
	want := payload
	// The repetend block carried the two counters under their JSON tags; the
	// untagged core.Stats block carried them, and the worker count, under
	// their Go field names.
	goName := func(tag string) string {
		var b strings.Builder
		for _, w := range strings.Split(tag, "_") {
			b.WriteString(strings.ToUpper(w[:1]) + w[1:])
		}
		return b.String()
	}
	for _, key := range []string{
		"solver_shared_memo_hits", "solver_jobs_stolen",
		goName("solver_shared_memo_hits"), goName("solver_jobs_stolen"), goName("solver_workers"),
	} {
		gone := []byte(`"` + key + `":0,`)
		if bytes.Count(want, gone) != 2 {
			t.Fatalf("parent file does not carry %s once per entry", gone)
		}
		want = bytes.ReplaceAll(want, gone, nil)
	}
	if got := snapshotBytes(t, e); !bytes.Equal(got, withChecksumHeader(want)) {
		t.Fatal("re-snapshot of the restored parent file is not the parent payload minus the removed keys")
	}
	if _, info, err := e.Search(context.Background(), mshape(t), core.Options{N: 8}); err != nil || !info.Hit {
		t.Fatalf("restored parent entry did not serve a hit: info=%+v err=%v", info, err)
	}

	var body struct {
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(payload, &body); err != nil || len(body.Entries) != 2 {
		t.Fatalf("parent payload: %d entries, err=%v", len(body.Entries), err)
	}
	var entry struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body.Entries[1], &entry); err != nil {
		t.Fatal(err)
	}
	single := fmt.Appendf(nil, `{"version":%d,"entries":[%s]}`, snapshotVersion, body.Entries[1])
	peer := New(Options{})
	if _, err := peer.InsertPeerEntry(entry.Key, bytes.NewReader(withChecksumHeader(single))); err != nil {
		t.Fatalf("parent entry as a peer entry: %v", err)
	}
	if _, info, err := peer.Search(context.Background(), mshape(t), core.Options{N: 8}); err != nil || !info.Hit {
		t.Fatalf("peer-inserted parent entry did not serve a hit: info=%+v err=%v", info, err)
	}
}

// TestSnapshotBadEntrySkipped tampers with one entry inside an otherwise
// valid snapshot (recomputing the checksum, as a stale-but-well-formed file
// would have): the bad entry is skipped with a warning, the rest restore.
func TestSnapshotBadEntrySkipped(t *testing.T) {
	e, _ := warmEngine(t, Options{}, mshape(t), vshape(t))
	snap := snapshotBytes(t, e)

	nl := bytes.IndexByte(snap, '\n')
	var body snapshotBody
	if err := json.Unmarshal(snap[nl+1:], &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Entries) != 2 {
		t.Fatalf("snapshot holds %d entries, want 2", len(body.Entries))
	}
	body.Entries[0].Makespan++ // fails the full-schedule cross-check
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	tampered := withChecksumHeader(payload)

	rec := &logRecorder{}
	fresh := New(Options{Logf: rec.logf})
	n, err := fresh.RestoreFrom(bytes.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || fresh.Stats().Entries != 1 {
		t.Fatalf("restored %d entries (cache %d), want 1", n, fresh.Stats().Entries)
	}
	if rec.count("skipping entry") != 1 {
		t.Fatalf("skipped entry not logged exactly once: %v", rec.lines)
	}
}

// withOverlap returns the snapshot or peer payload data, re-checksummed, with
// the full schedule of its first entry rewritten so that two blocks run on one
// device at once — early enough to leave the makespan, and so every check but
// the schedule's own validation, as it was.
func withOverlap(t testing.TB, data []byte) []byte {
	t.Helper()
	var body snapshotBody
	if err := json.Unmarshal(data[bytes.IndexByte(data, '\n')+1:], &body); err != nil {
		t.Fatal(err)
	}
	entry := &body.Entries[0]
	p, err := sched.DecodePlacement(bytes.NewReader(entry.Placement))
	if err != nil {
		t.Fatal(err)
	}
	first := entry.Full[0]
	for i := 1; i < len(entry.Full)/2; i++ {
		it := &entry.Full[i]
		if it.Start > first.Start && slices.ContainsFunc(p.Stages[it.Stage].Devices, p.Stages[first.Stage].OnDevice) {
			it.Start = first.Start
			payload, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			return withChecksumHeader(payload)
		}
	}
	t.Fatal("no early block shares a device with the first")
	return nil
}

// TestSnapshotInvalidScheduleSkipped: an entry whose full schedule breaks device
// exclusivity — in a file whose checksum, ranges and makespan all hold — would
// be served as it stands to a request at its recorded N. The restore skips it.
func TestSnapshotInvalidScheduleSkipped(t *testing.T) {
	e, _ := warmEngine(t, Options{}, mshape(t), vshape(t))
	rec := &logRecorder{}
	fresh := New(Options{Logf: rec.logf})
	n, err := fresh.RestoreFrom(bytes.NewReader(withOverlap(t, snapshotBytes(t, e))))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || fresh.Stats().Entries != 1 || rec.count("overlap") != 1 {
		t.Fatalf("restored %d entries (cache %d), want 1 and the other skipped for its overlap: %v", n, fresh.Stats().Entries, rec.lines)
	}
}

// TestPeerEntryRejectsInvalidSchedule: the same entry arriving from a peer is
// rejected before it touches the cache.
func TestPeerEntryRejectsInvalidSchedule(t *testing.T) {
	src, _ := warmEngine(t, Options{}, mshape(t))
	key := cachedKey(t, src)
	data, _, err := src.EncodePeerEntry(key)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(Options{})
	if _, err := dst.InsertPeerEntry(key, bytes.NewReader(withOverlap(t, data))); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("InsertPeerEntry of an entry with overlapping blocks: err %v", err)
	}
	if st := dst.Stats(); st.Entries != 0 {
		t.Fatalf("rejected entry still cached %d entries", st.Entries)
	}
}

// TestSnapshotNeverOverwritesLive: restoring into an engine that already
// holds a key must keep the live result — a late restore cannot clobber
// fresher state.
func TestSnapshotNeverOverwritesLive(t *testing.T) {
	e, _ := warmEngine(t, Options{}, mshape(t))
	snap := snapshotBytes(t, e)
	if n, err := e.RestoreFrom(bytes.NewReader(snap)); err != nil || n != 0 {
		t.Fatalf("restore over live cache: n=%d err=%v", n, err)
	}
	if st := e.Stats(); st.Entries != 1 || st.Restored != 0 {
		t.Fatalf("live entry displaced: %+v", st)
	}
}

// TestSnapshotPreservesRecency: entries are written MRU-first and restored
// in recency order, so a restore into a smaller cache keeps the most
// recently used results.
func TestSnapshotPreservesRecency(t *testing.T) {
	// mshape searched first, vshape second: vshape is MRU.
	e, fps := warmEngine(t, Options{}, mshape(t), vshape(t))
	snap := snapshotBytes(t, e)

	small := New(Options{CacheSize: 1})
	if _, err := small.RestoreFrom(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if st := small.Stats(); st.Entries != 1 {
		t.Fatalf("cap-1 cache holds %d entries", st.Entries)
	}
	res, info, err := small.Search(context.Background(), vshape(t), core.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatal("MRU entry was not the one kept")
	}
	if got := sched.FingerprintSchedule(res.Full); got != fps[1] {
		t.Fatalf("kept entry fingerprint %s != vshape original %s", got, fps[1])
	}
}

// TestSnapshotWriteFaultLeavesOldSnapshot injects a fault between payload
// write and rename: SaveSnapshot must fail, leave no temp file, and leave
// the previous snapshot fully loadable.
func TestSnapshotWriteFaultLeavesOldSnapshot(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	e, _ := warmEngine(t, Options{}, mshape(t))
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	// Grow the cache, then make the next write fail.
	if _, _, err := e.Search(context.Background(), vshape(t), core.Options{N: 8}); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected write fault")
	faultpoint.Arm(faultpoint.EngineSnapshotWrite, func() error { return injected })
	if err := e.SaveSnapshot(path); !errors.Is(err, injected) {
		t.Fatalf("SaveSnapshot under fault: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("torn temp file left behind: %v", err)
	}
	if n := New(Options{}).LoadSnapshot(path); n != 1 {
		t.Fatalf("previous snapshot damaged: restored %d entries, want 1", n)
	}

	// Disarmed, the same save succeeds and the new snapshot carries both.
	faultpoint.Disarm(faultpoint.EngineSnapshotWrite)
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if n := New(Options{}).LoadSnapshot(path); n != 2 {
		t.Fatalf("post-fault save restored %d entries, want 2", n)
	}
}

// BenchmarkEngineSnapshotRestore measures restart-to-warm: deserializing,
// re-validating, and inserting a snapshot of solved caches into a fresh
// engine — the work a reboot pays instead of re-running the sweeps.
func BenchmarkEngineSnapshotRestore(b *testing.B) {
	e, _ := warmEngine(b, Options{}, mshape(b), vshape(b))
	snap := snapshotBytes(b, e)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := New(Options{})
		if n, err := fresh.RestoreFrom(bytes.NewReader(snap)); err != nil || n != 2 {
			b.Fatalf("restore: n=%d err=%v", n, err)
		}
	}
}
