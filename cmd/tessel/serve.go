package main

// The serve subcommand turns the library into a long-running schedule-search
// service: a JSON-over-HTTP front-end over tessel.Engine, so repeated
// requests for a placement are answered from the repetend cache via the
// §III-C schedule generalization instead of re-running the N_R sweep, and
// concurrent identical requests coalesce into one search.
//
//	tessel serve -addr :8080 -cache-size 128 -search-timeout 60s
//
//	curl -s localhost:8080/v1/search -d '{
//	  "placement": {"name":"v-shape","num_devices":2,
//	    "stages":[{"name":"f0","time":1,"mem":1,"devices":[0]},
//	              {"name":"f1","time":1,"mem":1,"devices":[1]},
//	              {"name":"b1","kind":"backward","time":2,"mem":-1,"devices":[1]},
//	              {"name":"b0","kind":"backward","time":2,"mem":-1,"devices":[0]}],
//	    "deps":[[1],[2],[3],[]]},
//	  "options": {"n": 8}
//	}'
//
// Every response carries the placement fingerprint and whether the request
// hit the cache or shared an in-flight search. GET /v1/stats reports the
// engine counters; SIGINT/SIGTERM drain in-flight requests gracefully.
//
// The serving tier is resilient by default: cold searches pass through
// admission control (-max-concurrent-searches, -max-queued-searches,
// -queue-wait, -tenant-rate) and refused requests get 429 with Retry-After
// — or a node-capped best-effort answer when they set allow_degraded; the
// repetend cache snapshots to -snapshot on SIGTERM and every
// -snapshot-interval (bounded-retry writes, failures counted), and restores
// at boot (readiness gated by /readyz), so a restart keeps previously-solved
// fingerprints warm.
//
// Multi-replica deployments give every replica the identical -peers list
// (including itself, named by -peer-self): placement fingerprints route to
// owner replicas on a consistent-hash ring, and a cold miss tries a bounded
// peer fetch (deadline-boxed, retried with backoff, per-peer circuit
// breakers, async health ejection) before paying a cold search. Replicas
// serve each other entries from GET /v1/peer/entry in the checksummed
// snapshot format and every fetched entry is re-validated like a boot
// restore, so a slow, dead, or lying peer degrades to a cold search — never
// a poisoned cache.
//
// A client that repeats its request body (a training job posts the same one
// every step) is not decoded again: a bounded memo in front of the decode
// maps the exact bytes of a body that decoded to the request it decoded to
// (requestMemo), so a cache hit goes straight to the engine. Its response
// costs only its bytes: the head and the schedule are appended into one
// pooled buffer with no reflection (writeSearchResponse), and the buffer goes
// out whole under a Content-Length.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/maphash"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unicode"

	"tessel"
	"tessel/internal/core"
	"tessel/internal/sched"
)

// maxRequestBytes bounds a /v1/search request body.
const maxRequestBytes = 1 << 20

// DefaultMaxN is the default cap on a request's micro-batch count. The
// schedule grows linearly in N (N·K blocks, unrolled and JSON-encoded), so
// an unbounded N would let one request exhaust server memory.
const DefaultMaxN = 4096

// searchRequest is one decoded /v1/search body: an object with the members
// "placement" (the JSON of `tessel -placement` files), "options" and "tenant".
type searchRequest struct {
	Placement *tessel.Placement
	Options   searchRequestOptions
	// Tenant attributes the request to a per-tenant admission budget
	// (-tenant-rate); empty is a valid (shared) tenant.
	Tenant string
}

// decodeSearchRequest decodes a /v1/search body in one pass, the placement
// member straight into its wire form. It accepts what the two-pass decode it
// replaced accepts — the body with a json.RawMessage placement, then that
// through DecodePlacement: names match members as encoding/json folds them,
// the last placement counts, whole, and only its type errors do, and nesting
// is limited over the whole body.
func decodeSearchRequest(body []byte) (searchRequest, error) {
	var req searchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); t != json.Delim('{') {
		return req, fmt.Errorf("decode request: %w", cmp.Or(err, errors.New("the body is not a JSON object")))
	}
	var placement *sched.PlacementJSON
	var placementErr error
	for {
		t, err := dec.Token()
		if err != nil {
			return req, fmt.Errorf("decode request: %w", err)
		}
		key, ok := t.(string)
		if !ok {
			break // the closing brace, the one other token an object key's place holds
		}
		switch strings.Map(unicode.ToUpper, key) { // encoding/json's fold
		case "PLACEMENT":
			placement = new(sched.PlacementJSON)
			placementErr = dec.Decode(placement)
			if _, typeErr := placementErr.(*json.UnmarshalTypeError); !typeErr {
				err = placementErr
			}
		case "OPTIONS":
			err = dec.Decode(&req.Options)
		case "TENANT":
			err = dec.Decode(&req.Tenant)
		default:
			err = dec.Decode(new(json.RawMessage))
		}
		if err != nil {
			return req, fmt.Errorf("decode request: %w", err)
		}
	}
	// Each member was decoded a level shallower than it sits in the body: a
	// body that could nest past encoding/json's 10,000 only so is checked.
	if n := dec.InputOffset(); n > 2*10000 && !json.Valid(body[:n]) {
		return req, errors.New("decode request: nested too deep")
	}
	if placement == nil {
		return req, errors.New("request needs a placement")
	}
	if placementErr != nil {
		return req, fmt.Errorf("sched: decode placement: %w", placementErr)
	}
	var err error
	req.Placement, err = placement.Placement()
	return req, err
}

type searchRequestOptions struct {
	N               int   `json:"n"`
	Memory          int   `json:"memory"`
	MaxNR           int   `json:"max_nr"`
	MaxAssignments  int   `json:"max_assignments"`
	SolverNodes     int64 `json:"solver_nodes"`
	SolverTimeoutMS int64 `json:"solver_timeout_ms"`
	// AllowDegraded opts in to a node-capped best-effort search when
	// admission control would otherwise shed the request with 429. The
	// response marks such results with "degraded": true.
	AllowDegraded bool `json:"allow_degraded"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// serveConfig is every `tessel serve` setting. serveFlags binds each field
// straight to its flag, and the engine options are the struct the engine
// takes, so a setting has one home between the command line and its reader.
type serveConfig struct {
	addr          string
	engine        tessel.EngineOptions
	searchTimeout time.Duration // per-request deadline
	solverTimeout time.Duration // default per-solve budget
	maxN          int           // cap on requested micro-batches
	snapshotPath  string        // cache snapshot file ("" = persistence off)
	snapshotEvery time.Duration
	peers         string // comma-separated ring members ("" = single replica)
	peerSelf      string
}

// serveFlags registers the serve flags on fs, bound to the returned config.
// Tunables that only ever had one value in use are package constants next to
// their readers instead: engine.DefaultPeerFetchBudget and the degraded-search
// node cap in internal/engine, the fetch, breaker and prober Default* constants
// in internal/peer.
func serveFlags(fs *flag.FlagSet) *serveConfig {
	cfg := &serveConfig{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.engine.CacheSize, "cache-size", tessel.DefaultEngineCacheSize, "repetend cache capacity (searched placements)")
	fs.DurationVar(&cfg.searchTimeout, "search-timeout", 60*time.Second, "per-request search deadline")
	fs.DurationVar(&cfg.solverTimeout, "solver-timeout", 10*time.Second, "default per-solve budget when the request sets none")
	fs.IntVar(&cfg.maxN, "max-n", DefaultMaxN, "largest micro-batch count a request may ask for")
	fs.IntVar(&cfg.engine.MaxConcurrentSearches, "max-concurrent-searches", 2, "cold searches running at once (each saturates the CPU; 0 = unlimited)")
	fs.IntVar(&cfg.engine.MaxQueuedSearches, "max-queued-searches", 64, "cold searches that may wait for a slot (0 = unlimited, negative = none)")
	fs.DurationVar(&cfg.engine.QueueWait, "queue-wait", 5*time.Second, "longest a queued cold search waits before 429 (0 = until the request deadline)")
	fs.Float64Var(&cfg.engine.TenantRate, "tenant-rate", 0, "per-tenant cold searches per second (0 = no tenant budgets)")
	fs.IntVar(&cfg.engine.TenantBurst, "tenant-burst", 4, "per-tenant cold-search burst capacity")
	fs.StringVar(&cfg.snapshotPath, "snapshot", "", "cache snapshot file, restored at boot and written on SIGTERM and periodically (\"\" = off)")
	fs.DurationVar(&cfg.snapshotEvery, "snapshot-interval", 5*time.Minute, "period between cache snapshots when -snapshot is set")
	fs.StringVar(&cfg.peers, "peers", "", "comma-separated replica addresses forming the consistent-hash peer ring; identical on every replica and must include -peer-self (\"\" = single replica)")
	fs.StringVar(&cfg.peerSelf, "peer-self", "", "this replica's own address exactly as it appears in -peers")
	return cfg
}

// server holds the serve subcommand's state: its config, the engine and the
// optional peer tier.
type server struct {
	cfg    *serveConfig
	engine *tessel.Engine
	// peerClient is the multi-replica cache tier (nil = single replica).
	peerClient *tessel.PeerClient
	// memo answers a repeated /v1/search body without decoding it again.
	memo *requestMemo
	// ready flips once the boot-time snapshot restore has finished (or
	// immediately when persistence is off); /readyz reports 503 until then
	// so load balancers don't route to a cold replica.
	ready atomic.Bool
}

// newServer validates cfg and builds the engine and, when -peers is set,
// the peer tier around it.
func newServer(cfg *serveConfig) (*server, error) {
	s := &server{cfg: cfg, engine: tessel.NewEngine(cfg.engine), memo: newRequestMemo()}
	if cfg.peers == "" {
		return s, nil
	}
	if cfg.peerSelf == "" {
		return nil, fmt.Errorf("-peers requires -peer-self (this replica's own address in the list)")
	}
	var list []string
	for _, p := range strings.Split(cfg.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			list = append(list, p)
		}
	}
	client, err := tessel.NewPeerClient(s.engine, tessel.PeerClientOptions{Self: cfg.peerSelf, Peers: list, Logf: log.Printf})
	if err != nil {
		return nil, err
	}
	s.peerClient = client
	s.engine.SetPeerTier(client)
	return s, nil
}

// snapshotWriteAttempts / snapshotWriteBackoff bound the snapshot write
// retry loop: a transiently failing disk (full, EIO, slow NFS) gets three
// chances with doubling backoff before the warm state is given up for this
// round — and every failed attempt is counted in snapshot_write_errors, so
// the loss is visible on /v1/stats either way.
const (
	snapshotWriteAttempts = 3
	snapshotWriteBackoff  = 100 * time.Millisecond
)

// writeSnapshot saves the cache snapshot with bounded retry. It returns
// the last error when every attempt failed.
func (s *server) writeSnapshot() error {
	backoff := snapshotWriteBackoff
	var err error
	for attempt := 1; attempt <= snapshotWriteAttempts; attempt++ {
		if err = s.engine.SaveSnapshot(s.cfg.snapshotPath); err == nil {
			return nil
		}
		log.Printf("tessel serve: snapshot write attempt %d/%d: %v", attempt, snapshotWriteAttempts, err)
		if attempt < snapshotWriteAttempts {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
	return err
}

// runServe is the entry point of `tessel serve`.
func runServe(args []string) {
	fs := flag.NewFlagSet("tessel serve", flag.ExitOnError)
	cfg := serveFlags(fs)
	fs.Parse(args)
	s, err := newServer(cfg)
	if err != nil {
		log.Fatalf("tessel serve: %v", err)
	}
	if s.peerClient != nil {
		conf, healthy := s.peerClient.HealthSummary()
		log.Printf("tessel serve: peer ring: self %s, %d remote peers (%d healthy)", cfg.peerSelf, conf, healthy)
	}

	srv := &http.Server{
		Addr:    cfg.addr,
		Handler: s.mux(),
		// Transport-level bounds against stalled clients; handler time is
		// bounded separately by -search-timeout, so no WriteTimeout (it
		// would cut off slow searches mid-response).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if s.peerClient != nil {
		// Async health probes eject dead peers from the ring (and readmit
		// recovered ones) so miss-path fetches stop wasting budget on them.
		go s.peerClient.RunProber(ctx)
	}

	// Restore the cache in the background so the listener binds immediately;
	// /readyz keeps the replica out of rotation until the restore finishes.
	// LoadSnapshot never fails the boot: a missing file is a first start and
	// a torn or stale snapshot degrades to a cold one with a logged warning.
	if cfg.snapshotPath == "" {
		s.ready.Store(true)
	} else {
		go func() {
			if n := s.engine.LoadSnapshot(cfg.snapshotPath); n > 0 {
				log.Printf("tessel serve: restored %d cached searches from %s", n, cfg.snapshotPath)
			}
			s.ready.Store(true)
		}()
		if cfg.snapshotEvery > 0 {
			go func() {
				ticker := time.NewTicker(cfg.snapshotEvery)
				defer ticker.Stop()
				for {
					select {
					case <-ticker.C:
						if err := s.writeSnapshot(); err != nil {
							log.Printf("tessel serve: snapshot: giving up this round: %v", err)
						}
					case <-ctx.Done():
						return
					}
				}
			}()
		}
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("tessel serve: listening on %s (cache %d, search timeout %s)", cfg.addr, cfg.engine.CacheSize, cfg.searchTimeout)

	select {
	case <-ctx.Done():
		log.Printf("tessel serve: shutting down")
		// Give drains the full search deadline plus a grace period, so an
		// in-flight search always gets to finish (or 504) before the
		// process exits. With no search deadline (-search-timeout 0) the
		// drain budget is 5 minutes.
		drain := 5 * time.Minute
		if cfg.searchTimeout > 0 {
			drain = cfg.searchTimeout + 5*time.Second
			if drain < 15*time.Second {
				drain = 15 * time.Second
			}
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("tessel serve: shutdown: %v", err)
		}
		<-errCh
		// Final snapshot after the drain, so the file captures every search
		// that completed before the process exits.
		if cfg.snapshotPath != "" {
			if err := s.writeSnapshot(); err != nil {
				log.Printf("tessel serve: final snapshot: %v", err)
			} else {
				log.Printf("tessel serve: cache snapshot written to %s", cfg.snapshotPath)
			}
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("tessel serve: %v", err)
		}
	}
}

// mux builds the HTTP routes. Factored out of runServe so tests can drive
// the handler through httptest without a listener.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/search", s.handleSearch)
	mux.HandleFunc("/v1/stats", s.handleStats)
	// The peer interchange endpoints are always registered — a replica that
	// is not in any ring simply never gets called on them, and keeping them
	// unconditional means a rolling config change (adding -peers) needs no
	// route changes.
	tessel.NewPeerServer(s.engine, s.ready.Load).Register(mux)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	// /readyz is liveness plus warmth: it reports 503 until the boot-time
	// snapshot restore has finished, so load balancers keep traffic off a
	// replica that would serve everything cold. /healthz stays 200 the whole
	// time — the process is alive, just not preferred. The JSON body names
	// the reason and, on multi-replica deployments, the local view of the
	// peer ring so an operator can tell "restoring" from "ring partitioned"
	// at a glance.
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// readyzJSON is the /readyz body: machine-checkable readiness plus the
// human-facing reason and the replica's view of its peer ring.
type readyzJSON struct {
	Ready bool `json:"ready"`
	// Reason is "ok", "restoring" (boot snapshot restore still running), or
	// "degraded-ring" (ready, but some configured peers are ejected —
	// served traffic is fine, peer fetches just miss more).
	Reason string `json:"reason"`
	// PeersConfigured / PeersHealthy describe the consistent-hash ring:
	// remote replicas configured via -peers and how many are currently in
	// the ring (both 0 on a single replica).
	PeersConfigured int `json:"peers_configured"`
	PeersHealthy    int `json:"peers_healthy"`
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := readyzJSON{Ready: s.ready.Load(), Reason: "ok"}
	if s.peerClient != nil {
		body.PeersConfigured, body.PeersHealthy = s.peerClient.HealthSummary()
	}
	status := http.StatusOK
	switch {
	case !body.Ready:
		body.Reason = "restoring"
		status = http.StatusServiceUnavailable
	case body.PeersHealthy < body.PeersConfigured:
		// Still ready — the replica answers every request itself if it must —
		// but surfaced so operators see a partitioned ring before it matters.
		body.Reason = "degraded-ring"
	}
	writeJSON(w, status, body)
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	buf := requestBufs.Get().(*bytes.Buffer)
	defer putRequestBuf(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes)); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	req, err := s.memo.decode(buf.Bytes())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Options.N > s.cfg.maxN {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("n %d exceeds the server cap %d", req.Options.N, s.cfg.maxN))
		return
	}
	// A larger per-solve budget would wrap around as a time.Duration.
	const maxSolverTimeoutMS = math.MaxInt64 / int64(time.Millisecond)
	if ms := req.Options.SolverTimeoutMS; ms > maxSolverTimeoutMS {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("solver_timeout_ms %d exceeds %d", ms, maxSolverTimeoutMS))
		return
	}
	opts := tessel.SearchOptions{
		N:              req.Options.N,
		Memory:         req.Options.Memory,
		MaxNR:          req.Options.MaxNR,
		MaxAssignments: req.Options.MaxAssignments,
		SolverNodes:    req.Options.SolverNodes,
		SolverTimeout:  s.cfg.solverTimeout,
	}
	if req.Options.SolverTimeoutMS != 0 {
		opts.SolverTimeout = time.Duration(req.Options.SolverTimeoutMS) * time.Millisecond
	}

	ctx := r.Context()
	if s.cfg.searchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.searchTimeout)
		defer cancel()
	}
	res, info, err := s.engine.Serve(ctx, tessel.SearchRequest{
		Placement:     req.Placement,
		Options:       opts,
		Tenant:        req.Tenant,
		AllowDegraded: req.Options.AllowDegraded,
		ScheduleParts: true,
	})
	if err != nil {
		switch {
		case errors.Is(err, tessel.ErrOverloaded):
			// Shed load: tell the client when to come back. The engine's
			// OverloadError carries a reason-sized hint (tenant refill time
			// or the queue-wait cap).
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(err)))
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "search deadline exceeded")
		case errors.Is(err, context.Canceled):
			// Client went away; nothing useful to write.
			writeError(w, http.StatusServiceUnavailable, "search cancelled")
		case errors.Is(err, tessel.ErrInternal):
			// Server bug (recovered panic): the engine already logged the
			// fingerprint and recovered value once; return a generic 500.
			writeError(w, http.StatusInternalServerError, "internal search failure")
		case errors.Is(err, tessel.ErrInvalidRequest):
			// The request itself is malformed (e.g. a negative micro-batch
			// count): a client error, not an unprocessable search.
			writeError(w, http.StatusBadRequest, err.Error())
		default:
			// The request was well-formed but the search could not satisfy
			// it (e.g. no feasible repetend within memory).
			writeError(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}

	writeSearchResponse(w, res, info)
}

// requestBufs recycles /v1/search request buffers. A body may be as large as
// maxRequestBytes, but a buffer that grew past maxPooledRequest is dropped
// instead of kept in circulation by steady load.
var requestBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledRequest = 64 << 10

func putRequestBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledRequest {
		requestBufs.Put(buf)
	}
}

// The request memo. A training client posts the same /v1/search body on
// every step, and decoding its placement by encoding/json reflection is the
// largest cost of a cache hit. requestMemo maps the exact bytes of a body
// that decoded to the request it decoded to: the hash of the body picks a set
// of memoWays slots, and a hit is a stored copy of the body equal to it byte
// for byte, so a hit is the request a decode would return. A body that fails
// to decode is never stored, and is refused by a decode every time.
//
// The memo is bounded: at most memoEntries entries, each a body of at most
// memoMaxBody bytes and its decoded request (about as many bytes again for
// the paper's shapes, at most 256 stages' worth for any). An entry is never
// changed once published, and its Placement is shared by every request that
// hits it, as the engine's cache shares a cached result's: nothing on the
// serve path writes a placement.
//
// The sizes are measured ones. The benchmark's hot_extend cycles through 70
// bodies of 0.7–2.9 KB, and two ways of 128 sets keep nearly all of them
// resident under the 72-entry cap; every entry held costs zipf_mix, whose
// bodies are mostly distinct, about 7 KB of resident memory at steady state.
const (
	memoSets    = 128
	memoWays    = 2
	memoEntries = 72
	memoMaxBody = 16 << 10
)

type memoEntry struct {
	hash uint64
	body []byte // a copy: the request buffer goes back to its pool
	req  searchRequest
}

type requestMemo struct {
	seed  maphash.Seed
	slots [memoSets][memoWays]atomic.Pointer[memoEntry]
	// entries counts the slots taken. A slot once taken stays taken (a
	// later entry may replace its occupant), so the count only grows.
	entries atomic.Int32
}

func newRequestMemo() *requestMemo { return &requestMemo{seed: maphash.MakeSeed()} }

// decode is decodeSearchRequest, answered from the memo when body was
// decoded before.
func (m *requestMemo) decode(body []byte) (searchRequest, error) {
	if len(body) > memoMaxBody {
		return decodeSearchRequest(body)
	}
	h := maphash.Bytes(m.seed, body)
	set := &m.slots[h%memoSets]
	for i := range set {
		if e := set[i].Load(); e != nil && e.hash == h && bytes.Equal(e.body, body) {
			return e.req, nil
		}
	}
	req, err := decodeSearchRequest(body)
	if err == nil {
		m.store(set, &memoEntry{hash: h, body: bytes.Clone(body), req: req})
	}
	return req, err
}

// store publishes e in an empty slot of its set while fewer than memoEntries
// slots are taken, and otherwise over the occupant of the slot its hash
// picks, if that slot is taken.
func (m *requestMemo) store(set *[memoWays]atomic.Pointer[memoEntry], e *memoEntry) {
	for i := range set {
		if set[i].Load() != nil {
			continue
		}
		if m.entries.Add(1) <= memoEntries && set[i].CompareAndSwap(nil, e) {
			return
		}
		m.entries.Add(-1)
	}
	if slot := &set[e.hash>>32%memoWays]; slot.Load() != nil {
		slot.Store(e)
	}
}

// responseBufs recycles /v1/search response buffers. A response is written
// whole, so its buffer is as large as its body; one that grew past
// maxPooledResponse (n in the thousands) is dropped instead of pinned.
var responseBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResponse = 1 << 20

// writeSearchResponse writes the 200 for a search the engine served: the
// head appendSearchHead writes from res and info, then res's schedule as the
// "schedule" member, indented as writeJSON would. Nothing goes through
// reflection: the schedule, which is nearly all of the bytes, is appended once
// by res.AppendSchedule at the depth it has in the body — from Full, or, for
// a hit composed from a certified cache entry, which the handler asks the
// engine not to build, from the entry's warmup, unrolled body and moved
// cooldown, formatted run by run as their merge reads. The body is sent
// whole, under a Content-Length, so net/http neither chunks it nor flushes a
// trailer.
func writeSearchResponse(w http.ResponseWriter, res *core.Result, info tessel.CacheInfo) {
	buf := responseBufs.Get().(*[]byte)
	b, err := appendSearchHead((*buf)[:0], res, info)
	if err == nil {
		b, err = res.AppendSchedule(append(b, ",\n  \"schedule\": "...), 1)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	b = append(b, "\n}\n"...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	if _, err := w.Write(b); err != nil {
		log.Printf("tessel serve: write response: %v", err)
	}
	if cap(b) <= maxPooledResponse {
		*buf = b
		responseBufs.Put(buf)
	}
}

// appendSearchHead appends every member of a /v1/search response but the
// schedule, one a line, indented as json.MarshalIndent(v, "", "  ") indents
// them, with no closing "\n}". The members are info's, then res's, then the
// "stats" object of res.Stats: each counter under its field name in snake
// case, but for three members — memo_hits is SolverMemoHits, nodes_per_sec is
// NodesPerSec() and total_ms is Total in whole milliseconds. period, nr and
// assignment come from res.Repetend, and read 0, 0 and null without one. A NaN
// or infinite float is refused with the error MarshalIndent returns for it.
func appendSearchHead(b []byte, res *core.Result, info tessel.CacheInfo) ([]byte, error) {
	const m1, m2 = ",\n  \"", ",\n    \"" // a member after the first at depth 1 and 2
	b = sched.AppendString(append(b, "{\n  \"fingerprint\": "...), info.Fingerprint)
	b = strconv.AppendBool(append(b, m1+`cache_hit": `...), info.Hit)
	b = strconv.AppendBool(append(b, m1+`shared": `...), info.Shared)
	b = strconv.AppendBool(append(b, m1+`degraded": `...), info.Degraded)
	b = strconv.AppendBool(append(b, m1+`peer_hit": `...), info.PeerHit)
	b = strconv.AppendInt(append(b, m1+`n": `...), int64(res.N), 10)
	b = strconv.AppendInt(append(b, m1+`makespan": `...), int64(res.Makespan), 10)
	b = strconv.AppendInt(append(b, m1+`lower_bound": `...), int64(res.LowerBound), 10)
	var period, nr int
	var assign []int
	// A successful search always carries a repetend today, but the guard
	// keeps a malformed (e.g. directly-solved future) result from crashing
	// the handler mid-response.
	if r := res.Repetend; r != nil {
		period, nr, assign = r.Period, r.NR, r.Assign
	}
	b = strconv.AppendInt(append(b, m1+`period": `...), int64(period), 10)
	b = strconv.AppendInt(append(b, m1+`nr": `...), int64(nr), 10)
	b = sched.AppendInts(append(b, m1+`assignment": `...), assign, true, "\n    ")
	b, err := appendFloat(append(b, m1+`bubble_rate": `...), res.BubbleRate)
	if err != nil {
		return b, err
	}
	st := &res.Stats
	b = strconv.AppendInt(append(b, m1+"stats\": {\n    \"assignments\": "...), int64(st.Assignments), 10)
	b = strconv.AppendInt(append(b, m2+`solved": `...), int64(st.Solved), 10)
	b = strconv.AppendInt(append(b, m2+`pruned": `...), int64(st.Pruned), 10)
	b = strconv.AppendInt(append(b, m2+`improved": `...), int64(st.Improved), 10)
	b = strconv.AppendInt(append(b, m2+`nr_swept": `...), int64(st.NRSwept), 10)
	b = strconv.AppendInt(append(b, m2+`solver_nodes": `...), st.SolverNodes, 10)
	b = strconv.AppendInt(append(b, m2+`memo_hits": `...), st.SolverMemoHits, 10)
	b = strconv.AppendInt(append(b, m2+`warmup_nodes": `...), st.WarmupNodes, 10)
	b = strconv.AppendInt(append(b, m2+`cooldown_nodes": `...), st.CooldownNodes, 10)
	if b, err = appendFloat(append(b, m2+`nodes_per_sec": `...), st.NodesPerSec()); err != nil {
		return b, err
	}
	b = strconv.AppendInt(append(b, m2+`period_probes": `...), st.PeriodProbes, 10)
	b = strconv.AppendInt(append(b, m2+`period_relaxations": `...), st.PeriodRelaxations, 10)
	b = strconv.AppendInt(append(b, m2+`local_search_swaps": `...), st.LocalSearchSwaps, 10)
	b = strconv.AppendInt(append(b, m2+`order_checks": `...), st.OrderChecks, 10)
	b = strconv.AppendInt(append(b, m2+`order_pruned": `...), st.OrderPruned, 10)
	b = strconv.AppendInt(append(b, m2+`order_nodes": `...), st.OrderNodes, 10)
	b = strconv.AppendInt(append(b, m2+`prefix_checks": `...), st.PrefixChecks, 10)
	b = strconv.AppendInt(append(b, m2+`prefix_cuts": `...), st.PrefixCuts, 10)
	b = strconv.AppendBool(append(b, m2+`early_exit": `...), st.EarlyExit)
	b = strconv.AppendBool(append(b, m2+`truncated": `...), st.Truncated)
	b = strconv.AppendInt(append(b, m2+`total_ms": `...), st.Total.Milliseconds(), 10)
	return append(b, "\n  }"...), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest 'f'
// form, or the 'e' form, its exponent's leading zero trimmed, below 1e-6 and
// from 1e21 up. NaN and ±Inf have no JSON form; they get encoding/json's
// error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 is written e-7
		b = b[:n-1]
	}
	return b, nil
}

// serveStatsJSON is the wire form of /v1/stats: every engine counter (the
// embedded struct carries the wire names, so a counter added to the engine
// appears here with no further edit) plus the server's readiness.
type serveStatsJSON struct {
	tessel.EngineStats
	// Ready mirrors /readyz: false until the snapshot restore finished.
	Ready bool `json:"ready"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, serveStatsJSON{EngineStats: s.engine.Stats(), Ready: s.ready.Load()})
}

// retryAfterSeconds converts an overload error's back-off hint to whole
// seconds for the Retry-After header, rounding up with a floor of 1.
func retryAfterSeconds(err error) int {
	var oe *tessel.OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		secs := int((oe.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs
	}
	return 1
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("tessel serve: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
