// Crash-safe persistence of the repetend cache. A snapshot is a single
// file:
//
//	TESSEL-SNAPSHOT v2 <sha256-hex-of-body>\n
//	{ JSON body }
//
// The body holds every cache entry in MRU→LRU order, each stamped with its
// explicit recency rank: the request key, the placement in the canonical
// sched interchange encoding, the repetend's full numeric state, and the
// four phase schedules as sched.ItemJSON (stage, micro, start) triples.
// Restore re-validates everything it reads — the checksum and version up
// front, then per entry the placement (sched.DecodePlacement), the key's
// fingerprint prefix against the embedded placement's recomputed
// fingerprint, the repetend's vector lengths and bounds, each schedule item
// (sched.DecodeItems), and the full schedule's makespan and constraints
// (sched.Validate under the key's memory cap) — so a torn,
// corrupt, or stale-format snapshot degrades to a cold start (with a logged
// warning per skipped layer), never to a crash or a poisoned cache.
//
// Writes are atomic: SaveSnapshot writes a temp file in the target's
// directory and renames it into place, so a crash mid-write leaves the
// previous snapshot intact and at worst a stray .tmp file.
package engine

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"tessel/internal/core"
	"tessel/internal/faultpoint"
	"tessel/internal/repetend"
	"tessel/internal/sched"
)

// snapshotMagic is the first token of the header line; snapshotVersion is
// bumped on any incompatible body change, and a mismatch skips the whole
// snapshot (a cold start) rather than guessing.
const (
	snapshotMagic = "TESSEL-SNAPSHOT"
	// snapshotVersion 2 added the per-entry Recency stamp: v1 encoded the
	// LRU order only implicitly in entry file order, which any re-marshal
	// or hand-merge of the JSON body silently destroyed.
	snapshotVersion = 2
)

// snapshotBody is the checksummed JSON payload.
type snapshotBody struct {
	Version int             `json:"version"`
	Entries []snapshotEntry `json:"entries"`
}

// snapshotEntry is one cache entry. The placement is embedded once in the
// canonical interchange encoding; the schedules reference its stages by
// index.
type snapshotEntry struct {
	Key string `json:"key"`
	// Recency is the entry's explicit LRU rank at snapshot time: 0 is the
	// most recently used entry, larger is colder. Restore replays this
	// order rather than trusting the file order of the entries array.
	Recency    int              `json:"recency"`
	Placement  json.RawMessage  `json:"placement"`
	Repetend   snapshotRepetend `json:"repetend"`
	LowerBound int              `json:"lower_bound"`
	BubbleRate float64          `json:"bubble_rate"`
	N          int              `json:"n"`
	Makespan   int              `json:"makespan"`
	Stats      core.Stats       `json:"stats"`
	Warmup     []sched.ItemJSON `json:"warmup"`
	Body       []sched.ItemJSON `json:"body"`
	Cooldown   []sched.ItemJSON `json:"cooldown"`
	Full       []sched.ItemJSON `json:"full"`
}

// snapshotRepetend mirrors repetend.Repetend minus its placement pointer
// (restored from the entry's embedded placement).
type snapshotRepetend struct {
	Assign            []int `json:"assign"`
	NR                int   `json:"nr"`
	Starts            []int `json:"starts"`
	Period            int   `json:"period"`
	SimplePeriod      int   `json:"simple_period"`
	Spans             []int `json:"spans"`
	Waits             []int `json:"waits"`
	EntryMem          []int `json:"entry_mem"`
	SolverNodes       int64 `json:"solver_nodes"`
	SolverMemoHits    int64 `json:"solver_memo_hits"`
	Truncated         bool  `json:"truncated"`
	PeriodProbes      int64 `json:"period_probes"`
	PeriodRelaxations int64 `json:"period_relaxations"`
	LocalSearchSwaps  int64 `json:"local_search_swaps"`
}

// SnapshotTo serializes the cache to w. Entries are written MRU-first, so
// a restore into a smaller cache keeps the most recently useful results.
func (e *Engine) SnapshotTo(w io.Writer) error {
	e.mu.Lock()
	results := make([]*core.Result, 0, len(e.entries))
	keys := make([]string, 0, len(e.entries))
	for el := e.lru.Front(); el != nil; el = el.Next() {
		ce := el.Value.(*cacheEntry)
		results = append(results, ce.res)
		keys = append(keys, ce.key)
	}
	e.mu.Unlock()

	// Marshal outside the lock: results are immutable once cached.
	body := snapshotBody{Version: snapshotVersion}
	for i, res := range results {
		entry, err := encodeEntry(keys[i], res)
		if err != nil {
			return fmt.Errorf("engine: snapshot entry %s: %w", keys[i], err)
		}
		entry.Recency = i // 0 = MRU; results were walked front-to-back
		body.Entries = append(body.Entries, entry)
	}
	return writeSnapshotPayload(w, &body)
}

// writeSnapshotPayload marshals a snapshot body and writes it with the
// checksummed header line. Shared by the whole-cache snapshot writer and the
// single-entry peer interchange (peer.go), so both speak the same format.
func writeSnapshotPayload(w io.Writer, body *snapshotBody) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	if _, err := fmt.Fprintf(w, "%s v%d %s\n", snapshotMagic, snapshotVersion, hex.EncodeToString(sum[:])); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// parseSnapshotPayload reads and validates a checksummed snapshot stream:
// header shape, the exact version token, body checksum, and body/header
// version agreement. Any failure means the bytes must be discarded wholesale
// (the caller decides whether that is a cold start or a rejected peer
// response).
func parseSnapshotPayload(r io.Reader) (*snapshotBody, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot header: %w", err)
	}
	fields := strings.Fields(strings.TrimSpace(header))
	if len(fields) != 3 || fields[0] != snapshotMagic {
		return nil, fmt.Errorf("engine: not a tessel snapshot (header %q)", strings.TrimSpace(header))
	}
	// The version token must match exactly: numeric parsing would accept a
	// corrupt token like "v2garbage", "v+2" or "v02" as v2.
	if want := fmt.Sprintf("v%d", snapshotVersion); fields[1] != want {
		return nil, fmt.Errorf("engine: unsupported snapshot version %s (want %s)", fields[1], want)
	}
	payload, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot body: %w", err)
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != fields[2] {
		return nil, fmt.Errorf("engine: snapshot checksum mismatch (torn or corrupt write)")
	}
	var body snapshotBody
	if err := json.Unmarshal(payload, &body); err != nil {
		return nil, fmt.Errorf("engine: snapshot body: %w", err)
	}
	if body.Version != snapshotVersion {
		return nil, fmt.Errorf("engine: snapshot body version %d does not match header v%d", body.Version, snapshotVersion)
	}
	return &body, nil
}

// RestoreFrom loads a snapshot into the cache, returning how many entries
// were restored. A checksum or version mismatch returns an error and
// restores nothing; an individually invalid entry is skipped with a logged
// warning while the rest restore. Entries already live in the cache are
// never overwritten — a restore after boot cannot clobber fresher results.
func (e *Engine) RestoreFrom(r io.Reader) (int, error) {
	body, err := parseSnapshotPayload(r)
	if err != nil {
		return 0, err
	}

	// Replay by the explicit per-entry Recency rank (0 = MRU), so the
	// restore order survives any rewrite that shuffled the entries array.
	// Insert coldest-first so PushFront leaves the MRU entry at the front —
	// and so that a restore into a smaller cache evicts the coldest entries,
	// not an arbitrary marshal-order suffix.
	sort.SliceStable(body.Entries, func(a, b int) bool {
		return body.Entries[a].Recency > body.Entries[b].Recency
	})

	restored := 0
	for i := range body.Entries {
		entry := &body.Entries[i]
		res, err := decodeEntry(entry)
		if err != nil {
			e.logf("engine: snapshot: skipping entry %s: %v", entry.Key, err)
			continue
		}
		e.mu.Lock()
		if _, live := e.entries[entry.Key]; !live {
			e.insert(entry.Key, res)
			e.stats.Restored++
			restored++
		}
		e.mu.Unlock()
	}
	return restored, nil
}

// SaveSnapshot atomically writes the cache snapshot to path: the payload
// goes to a temp file in the same directory, which is renamed over path
// only after a successful sync-less close — a crash or injected fault
// mid-write leaves the previous snapshot untouched. Every failed write is
// counted in Stats.SnapshotWriteErrors, so silently lost warm state shows
// up on dashboards even when the caller only logs the error.
func (e *Engine) SaveSnapshot(path string) error {
	err := e.saveSnapshot(path)
	if err != nil {
		e.mu.Lock()
		e.stats.SnapshotWriteErrors++
		e.mu.Unlock()
	}
	return err
}

func (e *Engine) saveSnapshot(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := e.SnapshotTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := faultpoint.Inject(faultpoint.EngineSnapshotWrite); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadSnapshot restores the cache from path, returning how many entries
// were restored. A missing file is a normal first boot (0, nil); an
// unreadable, torn, or version-mismatched snapshot is logged and degrades
// to a cold start — LoadSnapshot never fails the boot.
func (e *Engine) LoadSnapshot(path string) int {
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			e.logf("engine: snapshot %s unreadable, starting cold: %v", path, err)
		}
		return 0
	}
	defer f.Close()
	n, err := e.RestoreFrom(f)
	if err != nil {
		e.logf("engine: snapshot %s invalid, starting cold: %v", path, err)
		return 0
	}
	return n
}

// encodeEntry serializes one cached result.
func encodeEntry(key string, res *core.Result) (snapshotEntry, error) {
	if res.Placement == nil || res.Repetend == nil || res.Full == nil {
		return snapshotEntry{}, fmt.Errorf("result missing placement, repetend, or schedule")
	}
	var pbuf bytes.Buffer
	if err := sched.EncodePlacement(&pbuf, res.Placement); err != nil {
		return snapshotEntry{}, err
	}
	r := res.Repetend
	return snapshotEntry{
		Key:       key,
		Placement: json.RawMessage(pbuf.Bytes()),
		Repetend: snapshotRepetend{
			Assign:            r.Assign,
			NR:                r.NR,
			Starts:            r.Starts,
			Period:            r.Period,
			SimplePeriod:      r.SimplePeriod,
			Spans:             r.Spans,
			Waits:             r.Waits,
			EntryMem:          r.EntryMem,
			SolverNodes:       r.SolverNodes,
			SolverMemoHits:    r.SolverMemoHits,
			Truncated:         r.Truncated,
			PeriodProbes:      r.PeriodProbes,
			PeriodRelaxations: r.PeriodRelaxations,
			LocalSearchSwaps:  r.LocalSearchSwaps,
		},
		LowerBound: res.LowerBound,
		BubbleRate: res.BubbleRate,
		N:          res.N,
		Makespan:   res.Makespan,
		Stats:      res.Stats,
		Warmup:     sched.EncodeItems(res.Warmup),
		Body:       sched.EncodeItems(res.Body),
		Cooldown:   sched.EncodeItems(res.Cooldown),
		Full:       sched.EncodeItems(res.Full),
	}, nil
}

// decodeEntry validates and rebuilds one cached result. Every structural
// assumption the serving path makes of a cached *core.Result is re-checked
// here, because the bytes may be stale or hand-edited: the placement
// validates, the key's fingerprint prefix matches the placement, the
// repetend's vectors have the placement's dimensions, schedule items
// pass sched.DecodeItems, the full schedule's makespan matches the recorded
// one, and the full schedule — which a request at the recorded N is answered
// with as it stands — satisfies dependencies, device exclusivity and the
// memory cap its key names.
func decodeEntry(entry *snapshotEntry) (*core.Result, error) {
	p, err := sched.DecodePlacement(bytes.NewReader(entry.Placement))
	if err != nil {
		return nil, err
	}
	if fp := sched.Fingerprint(p); !strings.HasPrefix(entry.Key, fp+"|") {
		return nil, fmt.Errorf("key does not match placement fingerprint %s", fp)
	}
	k := p.K()
	sr := &entry.Repetend
	if sr.NR < 1 {
		return nil, fmt.Errorf("repetend NR %d out of range", sr.NR)
	}
	if len(sr.Assign) != k || len(sr.Starts) != k {
		return nil, fmt.Errorf("repetend vectors sized %d/%d, want %d stages", len(sr.Assign), len(sr.Starts), k)
	}
	if len(sr.Spans) != p.NumDevices || len(sr.Waits) != p.NumDevices || len(sr.EntryMem) != p.NumDevices {
		return nil, fmt.Errorf("repetend device vectors sized %d/%d/%d, want %d devices",
			len(sr.Spans), len(sr.Waits), len(sr.EntryMem), p.NumDevices)
	}
	for i, a := range sr.Assign {
		if a < 0 || a >= sr.NR {
			return nil, fmt.Errorf("assign[%d] = %d outside [0,%d)", i, a, sr.NR)
		}
	}
	r := &repetend.Repetend{
		P:                 p,
		Assign:            repetend.Assignment(sr.Assign),
		NR:                sr.NR,
		Starts:            sr.Starts,
		Period:            sr.Period,
		SimplePeriod:      sr.SimplePeriod,
		Spans:             sr.Spans,
		Waits:             sr.Waits,
		EntryMem:          sr.EntryMem,
		SolverNodes:       sr.SolverNodes,
		SolverMemoHits:    sr.SolverMemoHits,
		Truncated:         sr.Truncated,
		PeriodProbes:      sr.PeriodProbes,
		PeriodRelaxations: sr.PeriodRelaxations,
		LocalSearchSwaps:  sr.LocalSearchSwaps,
	}
	warm, err := sched.DecodeItems(p, entry.Warmup)
	if err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	body, err := sched.DecodeItems(p, entry.Body)
	if err != nil {
		return nil, fmt.Errorf("body: %w", err)
	}
	cool, err := sched.DecodeItems(p, entry.Cooldown)
	if err != nil {
		return nil, fmt.Errorf("cooldown: %w", err)
	}
	full, err := sched.DecodeItems(p, entry.Full)
	if err != nil {
		return nil, fmt.Errorf("full: %w", err)
	}
	if got := full.Makespan(); got != entry.Makespan {
		return nil, fmt.Errorf("full schedule makespan %d does not match recorded %d", got, entry.Makespan)
	}
	memory, err := keyMemory(entry.Key)
	if err != nil {
		return nil, err
	}
	if err := full.Validate(sched.ValidateOptions{Memory: memory}); err != nil {
		return nil, fmt.Errorf("full schedule invalid: %w", err)
	}
	return &core.Result{
		Placement:  p,
		Repetend:   r,
		LowerBound: entry.LowerBound,
		BubbleRate: entry.BubbleRate,
		N:          entry.N,
		Warmup:     warm,
		Body:       body,
		Cooldown:   cool,
		Full:       full,
		Makespan:   entry.Makespan,
		Stats:      entry.Stats,
	}, nil
}

// keyMemory reads the per-device memory cap out of a cache key's mem=
// component (requestKey).
func keyMemory(key string) (int, error) {
	_, rest, _ := strings.Cut(key, "|mem=")
	num, _, _ := strings.Cut(rest, "|")
	memory, err := strconv.Atoi(num)
	if err != nil {
		return 0, fmt.Errorf("key carries no memory cap: %q", key)
	}
	return memory, nil
}
