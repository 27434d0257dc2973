package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
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

// TestSnapshotV1IsColdStart: a v1 snapshot (the one-PR-lived format without
// recency stamps), a v2 one (testdata/parent_v2.snap, written by SnapshotTo
// when entries still stored their full schedule, derived scalars and the
// repetend's counters) and a v3 one (testdata/parent_v3.snap, written when
// entries stored the warmup, body and cooldown in place of the full
// schedule), both of m-shape then v-shape on 4 devices at N = 8, are
// unsupported versions like any other: a logged cold start, nothing restored,
// and an engine that still serves.
func TestSnapshotV1IsColdStart(t *testing.T) {
	e, _ := warmEngine(t, Options{}, mshape(t), vshape(t))
	snap := snapshotBytes(t, e)
	var body snapshotBody
	if err := json.Unmarshal(snap[bytes.IndexByte(snap, '\n')+1:], &body); err != nil {
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
	v1 := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(v1, append(fmt.Appendf(nil, "%s v1 %s\n", snapshotMagic, hex.EncodeToString(sum[:])), payload...), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{v1, "testdata/parent_v2.snap", "testdata/parent_v3.snap"} {
		rec := &logRecorder{}
		fresh := New(Options{Logf: rec.logf})
		if n := fresh.LoadSnapshot(path); n != 0 || rec.count("unsupported snapshot version") != 1 {
			t.Fatalf("%s: restored %d entries, log %v", path, n, rec.lines)
		}
		if st := fresh.Stats(); st.Entries != 0 || st.Restored != 0 {
			t.Fatalf("%s left state behind: %+v", path, st)
		}
		if _, info, err := fresh.Search(context.Background(), vshape(t), core.Options{N: 8}); err != nil || info.Hit {
			t.Fatalf("engine unusable after refusing %s: info=%+v err=%v", path, info, err)
		}
	}
}

// withChecksumHeader frames a snapshot payload the way writeSnapshotPayload
// does, for tests that assemble or edit a payload by hand.
func withChecksumHeader(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(fmt.Appendf(nil, "%s v%d %s\n", snapshotMagic, snapshotVersion, hex.EncodeToString(sum[:])), payload...)
}

// tampered returns the snapshot or peer payload data with edit applied to its
// first entry and the checksum recomputed, as a stale-but-well-formed file or
// a lying peer would carry it.
func tampered(t testing.TB, data []byte, edit func(p *sched.Placement, entry *snapshotEntry)) []byte {
	t.Helper()
	var body snapshotBody
	if err := json.Unmarshal(data[bytes.IndexByte(data, '\n')+1:], &body); err != nil {
		t.Fatal(err)
	}
	p, err := sched.DecodePlacement(bytes.NewReader(body.Entries[0].Placement))
	if err != nil {
		t.Fatal(err)
	}
	edit(p, &body.Entries[0])
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return withChecksumHeader(payload)
}

// TestSnapshotBadEntrySkipped tampers with one entry inside an otherwise
// valid snapshot (recomputing the checksum, as a stale-but-well-formed file
// would have): the bad entry is skipped with a warning, the rest restore.
func TestSnapshotBadEntrySkipped(t *testing.T) {
	e, _ := warmEngine(t, Options{}, mshape(t), vshape(t))
	snap := snapshotBytes(t, e)

	// One micro-batch more than the schedule holds fails the completeness check.
	bad := tampered(t, snap, func(_ *sched.Placement, entry *snapshotEntry) { entry.N++ })

	rec := &logRecorder{}
	fresh := New(Options{Logf: rec.logf})
	n, err := fresh.RestoreFrom(bytes.NewReader(bad))
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
// the schedule of its first entry rewritten so that two blocks run on one
// device at once — early enough to leave the makespan, and so every check but
// the schedule's own validation, as it was.
func withOverlap(t testing.TB, data []byte) []byte {
	t.Helper()
	return tampered(t, data, func(p *sched.Placement, entry *snapshotEntry) {
		first := entry.Items[0]
		for i := 1; i < len(entry.Items)/2; i++ {
			if it := &entry.Items[i]; it.Start > first.Start && slices.ContainsFunc(p.Stages[it.Stage].Devices, p.Stages[first.Stage].OnDevice) {
				it.Start = first.Start
				return
			}
		}
		t.Fatal("no early block shares a device with the first")
	})
}

// withoutLastMicro takes micro-batch N−1 out of the first entry's schedule:
// dropped, or renumbered N. Each block stays valid where it stands, but a
// request at the recorded N would be served a schedule short of K blocks.
func withoutLastMicro(t testing.TB, data []byte, renumber bool) []byte {
	t.Helper()
	return tampered(t, data, func(_ *sched.Placement, entry *snapshotEntry) {
		entry.Items = slices.DeleteFunc(entry.Items, func(it sched.ItemJSON) bool { return it.Micro == entry.N-1 && !renumber })
		for i := range entry.Items {
			if entry.Items[i].Micro == entry.N-1 {
				entry.Items[i].Micro = entry.N
			}
		}
	})
}

// withShortPeriod lowers the first entry's repetend period by one. Its
// schedule at the recorded N is untouched and valid; every other N would be
// unrolled from a period the starts cannot keep.
func withShortPeriod(t testing.TB, data []byte) []byte {
	t.Helper()
	return tampered(t, data, func(_ *sched.Placement, entry *snapshotEntry) { entry.Repetend.Period-- })
}

// TestSnapshotPoisonedEntriesSkipped: an entry whose schedule misses a
// micro-batch, or whose repetend cannot produce another N, is skipped on
// restore; the engine answers its request with a cold search instead.
func TestSnapshotPoisonedEntriesSkipped(t *testing.T) {
	e, _ := warmEngine(t, Options{}, mshape(t), vshape(t))
	snap := snapshotBytes(t, e)
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"incomplete schedule", "schedule holds", withoutLastMicro(t, snap, false)},
		{"block beyond N", "beyond N", withoutLastMicro(t, snap, true)},
		{"inconsistent repetend", "repetend invalid", withShortPeriod(t, snap)},
	} {
		rec := &logRecorder{}
		fresh := New(Options{Logf: rec.logf})
		if n, err := fresh.RestoreFrom(bytes.NewReader(c.data)); err != nil || n != 1 || rec.count(c.want) != 1 {
			t.Fatalf("%s: restored %d entries, err %v, want 1 and the other skipped for %q: %v", c.name, n, err, c.want, rec.lines)
		}
		// The tampered entry is the MRU one, v-shape's.
		if _, info, err := fresh.Search(context.Background(), vshape(t), core.Options{N: 17}); err != nil || info.Hit {
			t.Fatalf("%s: request at another N: info=%+v err=%v, want a cold search", c.name, info, err)
		}
	}
}

// TestPeerEntryRejectsIncompleteSchedule: a peer entry missing micro-batch
// N−1 — every block in it valid, the makespan its own — is rejected, not
// served to a request at its N.
func TestPeerEntryRejectsIncompleteSchedule(t *testing.T) {
	key, data := peerEntry(t)
	if _, err := DecodePeerEntry(key, bytes.NewReader(withoutLastMicro(t, data, false))); err == nil || !strings.Contains(err.Error(), "schedule holds") {
		t.Fatalf("DecodePeerEntry of an entry short of one micro-batch: err %v", err)
	}
}

// TestPeerEntryRejectsInconsistentRepetend: a peer entry whose repetend period
// is one short is rejected, where it used to be cached and fail every later
// request for its key at another N.
func TestPeerEntryRejectsInconsistentRepetend(t *testing.T) {
	key, data := peerEntry(t)
	if _, err := DecodePeerEntry(key, bytes.NewReader(withShortPeriod(t, data))); err == nil || !strings.Contains(err.Error(), "repetend invalid") {
		t.Fatalf("DecodePeerEntry of an entry with a short period: err %v", err)
	}
}

// peerEntry returns the key and peer payload of a searched m-shape entry.
func peerEntry(t testing.TB) (string, []byte) {
	t.Helper()
	src, _ := warmEngine(t, Options{}, mshape(t))
	key := cachedKey(t, src)
	data, _, err := src.EncodePeerEntry(key)
	if err != nil {
		t.Fatal(err)
	}
	return key, data
}

// TestSnapshotEntryStoresOnlyInputs pins the v4 entry: one items list, the
// full schedule, and nothing derivable from it, the placement and the
// repetend — the warmup, body and cooldown, makespan, lower bound, bubble
// rate, spans, waits, entry memory and the repetend's effort counters.
func TestSnapshotEntryStoresOnlyInputs(t *testing.T) {
	key, data := peerEntry(t)
	var body struct {
		Entries []map[string]json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(data[bytes.IndexByte(data, '\n')+1:], &body); err != nil || len(body.Entries) != 1 {
		t.Fatalf("peer payload: %d entries, err %v", len(body.Entries), err)
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(body.Entries[0]["repetend"], &rep); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]json.RawMessage) string { return strings.Join(slices.Sorted(maps.Keys(m)), " ") }
	if got, want := keys(body.Entries[0]), "items key n placement recency repetend stats"; got != want {
		t.Errorf("entry keys %q, want %q", got, want)
	}
	if got, want := keys(rep), "assign nr period starts truncated"; got != want {
		t.Errorf("repetend keys %q, want %q", got, want)
	}
	if want := sched.Fingerprint(mshape(t)) + "|mem="; !strings.HasPrefix(key, want) || !strings.HasSuffix(key, "|lazy=true") {
		t.Errorf("key %q, want %s…|lazy=true", key, want)
	}
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
// rejected.
func TestPeerEntryRejectsInvalidSchedule(t *testing.T) {
	key, data := peerEntry(t)
	if _, err := DecodePeerEntry(key, bytes.NewReader(withOverlap(t, data))); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("DecodePeerEntry of an entry with overlapping blocks: err %v", err)
	}
}

// TestPeerEntryRejectsWrappedFinish: a schedule block moved to start at
// math.MaxInt ends past it. Its finish time wraps negative, which every
// successor's start and the device's next block read as long past, so the
// schedule validated and was served; DecodePeerEntry refuses the start.
func TestPeerEntryRejectsWrappedFinish(t *testing.T) {
	key, data := peerEntry(t)
	late := tampered(t, data, func(_ *sched.Placement, entry *snapshotEntry) { entry.Items[0].Start = math.MaxInt })
	if _, err := DecodePeerEntry(key, bytes.NewReader(late)); err == nil || !strings.Contains(err.Error(), "start outside") {
		t.Fatalf("DecodePeerEntry of an entry with a block starting at math.MaxInt: err %v", err)
	}
}

// TestPeerEntryRejectsWrappedRepetend: a one-device chain of two 2-tick
// stages, the first stage b's predecessor a numbered second, with a's repetend
// start at math.MaxInt − 1. Unrolled, a's later instances start at wrapped,
// negative times and its first finish wraps to math.MinInt, which b's starts
// read as long past; the device's span from b's start wrapped below the
// period. So the repetend validated and would have served every N but the
// recorded one; DecodePeerEntry refuses the start.
func TestPeerEntryRejectsWrappedRepetend(t *testing.T) {
	stage := func(name string) sched.Stage {
		return sched.Stage{Name: name, Kind: sched.Forward, Time: 2, Devices: []sched.DeviceID{0}}
	}
	p := &sched.Placement{Name: "chain", NumDevices: 1, Deps: [][]int{{}, {0}}, Stages: []sched.Stage{stage("b"), stage("a")}}
	src, _ := warmEngine(t, Options{}, p)
	key := cachedKey(t, src)
	data, _, err := src.EncodePeerEntry(key)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := tampered(t, data, func(_ *sched.Placement, entry *snapshotEntry) {
		entry.Repetend = snapshotRepetend{Assign: []int{0, 1}, NR: 2, Starts: []int{0, math.MaxInt - 1}, Period: 4}
	})
	if _, err := DecodePeerEntry(key, bytes.NewReader(wrapped)); err == nil || !strings.Contains(err.Error(), "start outside") {
		t.Fatalf("DecodePeerEntry of a repetend starting at math.MaxInt − 1: err %v", err)
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
// engine — the work a reboot pays instead of re-running the sweeps. It also
// reports the payload per entry, which a peer fetch pays as well.
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
	b.ReportMetric(float64(len(snap))/2, "bytes/entry")
}

// TestDecodeRepetendRejects: each check of decodeRepetend against a repetend
// that passes every other one. Stages a and b share device 0, c runs on
// device 1 after a, and each takes one tick, so a period of 2 leaves device 0
// no idle time. a holds a unit of memory that b frees.
func TestDecodeRepetendRejects(t *testing.T) {
	stage := func(name string, mem int, dev sched.DeviceID) sched.Stage {
		return sched.Stage{Name: name, Kind: sched.Forward, Time: 1, Mem: mem, Devices: []sched.DeviceID{dev}}
	}
	p := &sched.Placement{Name: "tiny", NumDevices: 2, Deps: [][]int{{2}, {}, {}},
		Stages: []sched.Stage{stage("a", 1, 0), stage("b", -1, 0), stage("c", 0, 1)}}
	for _, c := range []struct {
		name   string
		sr     snapshotRepetend
		memory int
		want   string // "" = accepted
	}{
		{"valid", snapshotRepetend{Assign: []int{1, 0, 0}, NR: 2, Starts: []int{0, 1, 0}, Period: 2}, sched.Unbounded, ""},
		// a's micro m+1 finishes at 2m+3, after c's starts at 2m+2.
		{"dependency across instances", snapshotRepetend{Assign: []int{1, 0, 0}, NR: 2, Starts: []int{2, 1, 0}, Period: 2}, sched.Unbounded, "dependency violated"},
		// a's one unit from the instance before already fills device 0.
		{"entry memory", snapshotRepetend{Assign: []int{1, 0, 0}, NR: 2, Starts: []int{0, 1, 0}, Period: 2}, 1, "memory"},
		// c's index above a's puts c's micro m in the warmup before a's.
		{"property 4.2", snapshotRepetend{Assign: []int{0, 0, 1}, NR: 2, Starts: []int{0, 1, 3}, Period: 2}, sched.Unbounded, "property 4.2"},
		{"N_R above the sweep's cap", snapshotRepetend{Assign: []int{1, 0, 0}, NR: 5, Starts: []int{0, 1, 0}, Period: 2}, sched.Unbounded, "outside [1,4]"},
		// Two instances interleave on device 0, but the next ones collide.
		{"span beyond the period", snapshotRepetend{Assign: []int{0, 0, 0}, NR: 1, Starts: []int{0, 3, 1}, Period: 2}, sched.Unbounded, "spans 4"},
		// Valid, but no solve returns a period above one micro-batch's work, 3.
		{"period beyond the work", snapshotRepetend{Assign: []int{1, 0, 0}, NR: 2, Starts: []int{0, 1, 0}, Period: 4}, sched.Unbounded, "outside [1,3]"},
	} {
		_, err := decodeRepetend(p, &c.sr, 4, c.memory)
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: err %v, want %q", c.name, err, c.want)
		}
	}
}
