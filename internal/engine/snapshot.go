// Crash-safe persistence of the repetend cache. A snapshot is a single
// file:
//
//	TESSEL-SNAPSHOT v4 <sha256-hex-of-body>\n
//	{ JSON body }
//
// The body holds every cache entry in MRU→LRU order, each stamped with its
// explicit recency rank. An entry stores only what cannot be recomputed: the
// request key, the placement (canonical sched encoding), the repetend, N, the
// search stats, and the full schedule as one items list of sched.ItemJSON
// (stage, micro, start) triples. Restore derives the rest — the makespan,
// lower bound and bubble rate are read off the schedule, the placement and
// the repetend — and re-validates everything it reads: the checksum and
// version up front, then per entry the placement, its fingerprint against the
// key, the repetend (decodeRepetend), each schedule item, and the schedule's
// completeness and constraints under the key's memory cap. A torn, corrupt,
// or stale (v1, v2, v3) snapshot degrades to a cold start with a logged
// warning per skipped layer, never to a crash or a poisoned cache.
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
	"slices"
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
	// or hand-merge of the JSON body silently destroyed. Version 3 dropped
	// every field that is derived from the others, and the key's literals.
	// Version 4 stores the full schedule, one items list, for v3's phases.
	snapshotVersion = 4
)

// snapshotBody is the checksummed JSON payload.
type snapshotBody struct {
	Version int             `json:"version"`
	Entries []snapshotEntry `json:"entries"`
}

// snapshotEntry is one cache entry. The placement is embedded once in the
// canonical interchange encoding; the schedule's items reference its stages
// by index.
type snapshotEntry struct {
	Key string `json:"key"`
	// Recency is the entry's explicit LRU rank at snapshot time: 0 is the
	// most recently used entry, larger is colder. Restore replays this
	// order rather than trusting the file order of the entries array.
	Recency   int              `json:"recency"`
	Placement json.RawMessage  `json:"placement"`
	Repetend  snapshotRepetend `json:"repetend"`
	N         int              `json:"n"`
	Stats     core.Stats       `json:"stats"`
	Items     []sched.ItemJSON `json:"items"`
}

// snapshotRepetend is repetend.Repetend minus its placement pointer
// (restored from the entry's embedded placement).
type snapshotRepetend struct {
	Assign    []int `json:"assign"`
	NR        int   `json:"nr"`
	Starts    []int `json:"starts"`
	Period    int   `json:"period"`
	Truncated bool  `json:"truncated"`
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
			Assign:    r.Assign,
			NR:        r.NR,
			Starts:    r.Starts,
			Period:    r.Period,
			Truncated: r.Truncated,
		},
		N:     res.N,
		Stats: res.Stats,
		Items: sched.EncodeItems(res.Full),
	}, nil
}

// decodeEntry validates and rebuilds one cached result. Every structural
// assumption the serving path makes of a cached *core.Result is re-checked
// here, because the bytes may be stale or hand-edited: the placement
// validates, the key's fingerprint prefix matches the placement, the
// repetend extends to every N (decodeRepetend), the schedule's items pass
// sched.DecodeItems, and the schedule — which a request at the recorded N is
// answered with as it stands — holds each of the N·K blocks once and
// satisfies dependencies, device exclusivity and the memory cap its key names.
func decodeEntry(entry *snapshotEntry) (*core.Result, error) {
	p, err := sched.DecodePlacement(bytes.NewReader(entry.Placement))
	if err != nil {
		return nil, err
	}
	if fp := sched.Fingerprint(p); !strings.HasPrefix(entry.Key, fp+"|") {
		return nil, fmt.Errorf("key does not match placement fingerprint %s", fp)
	}
	memory, err := keyInt(entry.Key, "mem")
	if err != nil {
		return nil, err
	}
	maxNR, err := keyInt(entry.Key, "nr")
	if err != nil {
		return nil, err
	}
	r, err := decodeRepetend(p, &entry.Repetend, maxNR, memory)
	if err != nil {
		return nil, err
	}
	full, err := sched.DecodeItems(p, entry.Items)
	if err != nil {
		return nil, err
	}
	if k := p.K(); entry.N < 1 || full.Len()%k != 0 || full.Len()/k != entry.N {
		return nil, fmt.Errorf("schedule holds %d blocks, want N·K = %d·%d", full.Len(), entry.N, k)
	}
	for _, it := range full.Items {
		if it.Micro >= entry.N {
			return nil, fmt.Errorf("block %v beyond N = %d", it.Block, entry.N)
		}
	}
	if err := full.Validate(sched.ValidateOptions{Memory: memory}); err != nil {
		return nil, fmt.Errorf("full schedule invalid: %w", err)
	}
	return &core.Result{Placement: p, Repetend: r, LowerBound: p.LowerBound(), BubbleRate: r.SteadyBubbleRate(),
		N: entry.N, Full: full, Makespan: full.Makespan(), Stats: entry.Stats}, nil
}

// decodeRepetend validates and rebuilds an entry's repetend, which serves
// every N but the recorded one. The assignment satisfies Property 4.2 within
// N_R, and N_R is at most maxNR, the sweep's own cap. Like every assignment
// the sweep walks, its indices start at 0 and N_R is one more than the
// largest: a repetend with a raised N_R or shifted indices would serve N_R
// micro-batches the search never chose. N_R + 1
// unrolled instances satisfy every constraint from the entry memory on: lags
// are at most N_R − 1, so they include every cross-instance dependency. And
// no device spans more than a period, which keeps each instance clear of the
// next however far the repetend is unrolled. That far, its times stay below
// 2^59, so none wraps: the period is at most one micro-batch's work, above
// every period a solve returns, and each start is below 2^58, like every time
// the search forms (see sched.MaxStageTime).
func decodeRepetend(p *sched.Placement, sr *snapshotRepetend, maxNR, memory int) (*repetend.Repetend, error) {
	if sr.NR < 1 || sr.NR > maxNR || len(sr.Starts) != p.K() {
		return nil, fmt.Errorf("repetend NR %d outside [1,%d] or %d starts for %d stages", sr.NR, maxNR, len(sr.Starts), p.K())
	}
	a := repetend.Assignment(sr.Assign)
	if err := a.Validate(p, sr.NR); err != nil {
		return nil, fmt.Errorf("repetend: %w", err)
	}
	if lo, hi := slices.Min(a), slices.Max(a); lo != 0 || hi != sr.NR-1 {
		return nil, fmt.Errorf("repetend indices span [%d,%d], want [0,%d] for NR %d", lo, hi, sr.NR-1, sr.NR)
	}
	// Unroll orders by period window; a searched repetend's first start is 0.
	work := 0
	for _, st := range p.Stages {
		work += st.Time
	}
	if sr.Period < 1 || sr.Period > work || slices.ContainsFunc(sr.Starts, func(st int) bool { return st < 0 || st >= 1<<58 }) {
		return nil, fmt.Errorf("repetend period %d outside [1,%d] or a start outside [0,2^58) in %v", sr.Period, work, sr.Starts)
	}
	r := &repetend.Repetend{P: p, Assign: a, NR: sr.NR, Starts: sr.Starts, Period: sr.Period, Truncated: sr.Truncated}
	if err := r.Unroll(r.NR + 1).Validate(sched.ValidateOptions{Memory: memory, InitialMem: repetend.EntryMemory(p, a, 0)}); err != nil {
		return nil, fmt.Errorf("repetend invalid: %w", err)
	}
	for d := 0; d < p.NumDevices; d++ {
		stages := p.DeviceStages(sched.DeviceID(d))
		if len(stages) == 0 {
			continue
		}
		first, last := sr.Starts[stages[0]], sr.Starts[stages[0]]
		for _, i := range stages {
			first, last = min(first, sr.Starts[i]), max(last, sr.Starts[i]+p.Stages[i].Time)
		}
		if last-first > sr.Period {
			return nil, fmt.Errorf("repetend invalid: device %d spans %d, more than period %d", d, last-first, sr.Period)
		}
	}
	return r, nil
}

// keyInt reads the integer of a cache key's name= component (requestKey).
func keyInt(key, name string) (int, error) {
	_, rest, _ := strings.Cut(key, "|"+name+"=")
	num, _, _ := strings.Cut(rest, "|")
	v, err := strconv.Atoi(num)
	if err != nil {
		return 0, fmt.Errorf("key carries no %s=: %q", name, key)
	}
	return v, nil
}
