package peer

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tessel/internal/core"
	"tessel/internal/engine"
	"tessel/internal/faultpoint"
	"tessel/internal/sched"
)

// The chaos tests arm process-global fault points, so none of them may run
// in parallel with each other; every test that arms a point registers
// t.Cleanup(faultpoint.Reset).

// replica couples one engine with its peer-facing HTTP server and client —
// one in-process serving replica of a multi-replica fleet.
type replica struct {
	eng    *engine.Engine
	srv    *httptest.Server
	client *Client
}

// serve runs one request through the replica's engine, like a /v1/search
// handler would.
func (r *replica) serve(t testing.TB, p *sched.Placement) (*core.Result, engine.CacheInfo) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, info, err := r.eng.Serve(ctx, engine.Request{Placement: p, Options: core.Options{N: 8}})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	return res, info
}

// newCluster builds n in-process replicas wired into one peer ring: each
// gets its own engine, an httptest server exposing the peer interchange,
// and a client over the shared address list. tune adjusts each replica's
// Client after construction and before its first fetch (sleep is already a
// no-op so retry backoff never slows the suite).
func newCluster(t *testing.T, n int, tune func(*Client)) []*replica {
	t.Helper()
	reps := make([]*replica, n)
	addrs := make([]string, n)
	for i := range reps {
		eng := engine.New(engine.Options{})
		mux := http.NewServeMux()
		NewServer(eng, nil).Register(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		reps[i] = &replica{eng: eng, srv: srv}
		addrs[i] = srv.URL
	}
	for i, r := range reps {
		client, err := NewClient(r.eng, ClientOptions{
			Self:           addrs[i],
			Peers:          addrs,
			AttemptTimeout: 5 * time.Second, // generous: CI under -race is slow
		})
		if err != nil {
			t.Fatal(err)
		}
		client.sleep = func(context.Context, time.Duration) {}
		if tune != nil {
			tune(client)
		}
		r.client = client
		r.eng.SetPeerTier(client)
	}
	return reps
}

// chainP mints a placement whose fingerprint is distinct per f — the cheap
// way to create many distinct cache keys (mirrors the engine chaos suite).
func chainP(t testing.TB, f int) *sched.Placement {
	t.Helper()
	p := &sched.Placement{
		Name:       fmt.Sprintf("chain-%d", f),
		NumDevices: 2,
		Stages: []sched.Stage{
			{Name: "f0", Kind: sched.Forward, Time: f, Mem: 1, Devices: []sched.DeviceID{0}},
			{Name: "f1", Kind: sched.Forward, Time: 1, Mem: 1, Devices: []sched.DeviceID{1}},
			{Name: "b1", Kind: sched.Backward, Time: 2, Mem: -1, Devices: []sched.DeviceID{1}},
			{Name: "b0", Kind: sched.Backward, Time: 2, Mem: -1, Devices: []sched.DeviceID{0}},
		},
		Deps: [][]int{{1}, {2}, {3}, {}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// baselineFingerprint is the full-schedule fingerprint of a never-faulted,
// peerless search — what every replica must reproduce byte-identically.
func baselineFingerprint(t testing.TB, p *sched.Placement) string {
	t.Helper()
	res, _, err := engine.New(engine.Options{}).Search(context.Background(), p, core.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	return sched.FingerprintSchedule(res.Full)
}

// TestPeerFetchServesColdMiss is the two-replica acceptance path: a
// fingerprint cold-searched on replica A is served on replica B by a peer
// fetch — no cold search, no admission slot, schedule byte-identical — and
// B's singleflight leader caches what it served, once.
func TestPeerFetchServesColdMiss(t *testing.T) {
	reps := newCluster(t, 2, nil)
	a, b := reps[0], reps[1]
	p := chainP(t, 3)
	baseline := baselineFingerprint(t, p)

	resA, infoA := a.serve(t, p)
	if infoA.Hit || infoA.Shared || infoA.PeerHit {
		t.Fatalf("replica A's first serve was not a cold search: %+v", infoA)
	}
	if fp := sched.FingerprintSchedule(resA.Full); fp != baseline {
		t.Fatalf("replica A schedule fingerprint %s != baseline %s", fp, baseline)
	}

	resB, infoB := b.serve(t, p)
	if !infoB.PeerHit {
		t.Fatalf("replica B did not serve from the peer tier: %+v", infoB)
	}
	if fp := sched.FingerprintSchedule(resB.Full); fp != baseline {
		t.Fatalf("peer-fetched schedule fingerprint %s != baseline %s", fp, baseline)
	}
	st := b.eng.Stats()
	if st.PeerHits != 1 {
		t.Fatalf("replica B peer hits = %d, want 1", st.PeerHits)
	}
	if st.Admitted != 0 {
		t.Fatalf("replica B admitted %d cold searches, want 0 — the peer hit must not consume an admission slot", st.Admitted)
	}
	if st.PeersHealthy != 1 {
		t.Fatalf("replica B sees %d healthy peers, want 1", st.PeersHealthy)
	}
	if st.Entries != 1 {
		t.Fatalf("replica B caches %d entries after the peer hit, want the leader's one", st.Entries)
	}

	// The fetched entry is now local: the next identical request is a plain
	// cache hit with no further peer traffic.
	_, again := b.serve(t, p)
	if !again.Hit || again.PeerHit || again.Shared {
		t.Fatalf("second serve on B was not a local cache hit: %+v", again)
	}
	if st := b.eng.Stats(); st.PeerHits != 1 {
		t.Fatalf("second serve grew peer hits to %d", st.PeerHits)
	}
}

// TestChaosPeerTornEntryDegradesToColdSearch tears the peer entry stream
// mid-body (intact header, half the payload, then an aborted connection):
// replica B must reject the torn body, count the failures, fall through to
// a cold search that reproduces the baseline schedule, and never let the
// invalid bytes near its cache.
func TestChaosPeerTornEntryDegradesToColdSearch(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	reps := newCluster(t, 2, nil)
	a, b := reps[0], reps[1]
	p := chainP(t, 4)
	baseline := baselineFingerprint(t, p)
	a.serve(t, p) // A holds the entry B will ask for

	faultpoint.Arm(faultpoint.PeerServeEntry, func() error {
		return fmt.Errorf("injected torn entry stream")
	})
	resB, infoB := b.serve(t, p)
	if infoB.PeerHit {
		t.Fatal("torn peer response was accepted as a peer hit")
	}
	if fp := sched.FingerprintSchedule(resB.Full); fp != baseline {
		t.Fatalf("degraded cold search fingerprint %s != baseline %s", fp, baseline)
	}
	st := b.eng.Stats()
	if st.PeerHits != 0 {
		t.Fatalf("peer hits = %d after torn responses, want 0", st.PeerHits)
	}
	if st.PeerErrors == 0 {
		t.Fatal("torn responses were not counted as peer errors")
	}
	if st.PeerRetries == 0 {
		t.Fatal("failed attempt was not retried")
	}
	if st.PeerMisses != 1 {
		t.Fatalf("peer misses = %d, want 1", st.PeerMisses)
	}

	// Not poisoned: the cold-searched entry (not the torn bytes) is cached.
	faultpoint.Reset()
	_, again := b.serve(t, p)
	if !again.Hit {
		t.Fatalf("serve after torn fetch was not a local hit: %+v", again)
	}
}

// TestChaosPeerDeadReplicaDegrades kills replica A outright: B's fetch hits
// a refused connection, the breaker opens, and B still answers from its own
// cold search within the deadline.
func TestChaosPeerDeadReplicaDegrades(t *testing.T) {
	reps := newCluster(t, 2, func(c *Client) {
		c.attempts = 1
		c.breakerFailures = 1
	})
	a, b := reps[0], reps[1]
	p := chainP(t, 5)
	baseline := baselineFingerprint(t, p)
	a.serve(t, p)
	a.srv.Close() // replica A dies with the entry B wants

	resB, infoB := b.serve(t, p)
	if infoB.PeerHit {
		t.Fatal("serve reported a peer hit from a dead replica")
	}
	if fp := sched.FingerprintSchedule(resB.Full); fp != baseline {
		t.Fatalf("cold search fingerprint %s != baseline %s", fp, baseline)
	}
	st := b.eng.Stats()
	if st.PeerErrors == 0 {
		t.Fatal("dead peer produced no error count")
	}
	if st.BreakerOpen != 1 {
		t.Fatalf("breaker open transitions = %d, want 1", st.BreakerOpen)
	}
	if got := b.client.BreakerState(a.srv.URL); got != BreakerOpen {
		t.Fatalf("breaker state for dead peer = %s, want open", got)
	}
}

// TestChaosPeerBreakerRecovery drives the breaker through its whole
// lifecycle under an injectable clock: repeated torn responses open it,
// the open circuit skips the peer without any HTTP attempt, and after the
// cooldown a half-open probe against the healed peer closes it again.
func TestChaosPeerBreakerRecovery(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	clock := newFakeClock()
	reps := newCluster(t, 2, func(c *Client) {
		c.attempts = 1
		c.breakerFailures = 2
		c.breakerCooldown = time.Minute
		c.now = clock.Now
	})
	a, b := reps[0], reps[1]

	// A holds every entry B will ask for, searched with identical options so
	// the cache keys match.
	ps := []*sched.Placement{chainP(t, 6), chainP(t, 7), chainP(t, 8), chainP(t, 9)}
	for _, p := range ps {
		a.serve(t, p)
	}

	faultpoint.Arm(faultpoint.PeerServeEntry, func() error {
		return fmt.Errorf("injected torn entry stream")
	})
	b.serve(t, ps[0]) // failure 1 of 2: breaker still closed
	if got := b.client.BreakerState(a.srv.URL); got != BreakerClosed {
		t.Fatalf("breaker %s after one failure, want closed", got)
	}
	b.serve(t, ps[1]) // failure 2 of 2: breaker opens
	if got := b.client.BreakerState(a.srv.URL); got != BreakerOpen {
		t.Fatalf("breaker %s after two failures, want open", got)
	}
	errsWhenOpened := b.eng.Stats().PeerErrors

	// Open circuit: the peer is skipped entirely — a cold search with no new
	// HTTP attempt and no new error.
	_, info := b.serve(t, ps[2])
	if info.PeerHit {
		t.Fatal("open breaker still produced a peer hit")
	}
	if st := b.eng.Stats(); st.PeerErrors != errsWhenOpened {
		t.Fatalf("open breaker still attempted the peer: errors %d → %d", errsWhenOpened, st.PeerErrors)
	}

	// Peer heals, cooldown elapses: the next fetch is the half-open probe,
	// it succeeds, and the circuit closes.
	faultpoint.Reset()
	clock.Advance(time.Minute + time.Second)
	_, info = b.serve(t, ps[3])
	if !info.PeerHit {
		t.Fatalf("half-open probe against the healed peer did not recover: %+v", info)
	}
	if got := b.client.BreakerState(a.srv.URL); got != BreakerClosed {
		t.Fatalf("breaker %s after successful probe, want closed", got)
	}
	if st := b.eng.Stats(); st.BreakerOpen != 1 {
		t.Fatalf("breaker open transitions = %d, want exactly 1", st.BreakerOpen)
	}
}

// TestChaosPeerFlappingHealth drives the prober's hysteresis directly: a
// peer whose health endpoint starts failing is ejected only after
// DefaultEjectAfter (2) consecutive bad probes, fetches then skip it
// without HTTP traffic, and recovery readmits it only after
// DefaultReadmitAfter (2) consecutive good probes.
func TestChaosPeerFlappingHealth(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	reps := newCluster(t, 2, nil)
	a, b := reps[0], reps[1]
	ctx := context.Background()

	pEjected, pRecovered := chainP(t, 10), chainP(t, 11)
	a.serve(t, pEjected)
	a.serve(t, pRecovered)

	faultpoint.Arm(faultpoint.PeerServeHealth, func() error {
		return fmt.Errorf("injected health failure")
	})
	b.client.ProbeOnce(ctx) // 1 of 2: hysteresis holds the peer in the ring
	if conf, healthy := b.client.HealthSummary(); conf != 1 || healthy != 1 {
		t.Fatalf("peer ejected after a single failed probe: configured %d healthy %d", conf, healthy)
	}
	b.client.ProbeOnce(ctx) // 2 of 2: ejected
	if _, healthy := b.client.HealthSummary(); healthy != 0 {
		t.Fatalf("peer still healthy after %d failed probes", 2)
	}

	// Ejected peer: the ring walk yields no remote, so the fetch round is an
	// instant miss — cold search, zero HTTP attempts, zero errors.
	_, info := b.serve(t, pEjected)
	if info.PeerHit {
		t.Fatal("ejected peer still produced a peer hit")
	}
	st := b.eng.Stats()
	if st.PeerErrors != 0 {
		t.Fatalf("fetch attempted an ejected peer: %d errors", st.PeerErrors)
	}
	if st.PeersHealthy != 0 {
		t.Fatalf("stats report %d healthy peers while ejected, want 0", st.PeersHealthy)
	}

	// Health returns: one good probe is not enough (flap damping), two are.
	faultpoint.Reset()
	b.client.ProbeOnce(ctx)
	if _, healthy := b.client.HealthSummary(); healthy != 0 {
		t.Fatal("peer readmitted after a single good probe")
	}
	b.client.ProbeOnce(ctx)
	if _, healthy := b.client.HealthSummary(); healthy != 1 {
		t.Fatal("peer not readmitted after two good probes")
	}
	_, info = b.serve(t, pRecovered)
	if !info.PeerHit {
		t.Fatalf("readmitted peer did not serve the fetch: %+v", info)
	}
}

// TestPeerHealthEndpointReflectsReadiness: a replica whose ready hook says
// "restoring" must answer health 503 so remote probers keep it ejected.
func TestPeerHealthEndpointReflectsReadiness(t *testing.T) {
	eng := engine.New(engine.Options{})
	var ready atomic.Bool
	mux := http.NewServeMux()
	NewServer(eng, ready.Load).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/v1/peer/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("restoring replica answered health %d, want 503", resp.StatusCode)
	}
	ready.Store(true)
	resp, err = http.Get(srv.URL + "/v1/peer/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready replica answered health %d, want 200", resp.StatusCode)
	}
}
