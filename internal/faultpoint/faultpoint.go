// Package faultpoint provides named fault-injection points for the serving
// stack's chaos tests. A point is a single call — faultpoint.Inject(name) —
// placed at a location whose failure the robustness layer must contain: the
// solver's solve entry (a panic there crosses the sweep's worker goroutines),
// the engine's singleflight leader, and the snapshot writer.
//
// In normal operation every point is disarmed and Inject is a single atomic
// load returning nil — cheap enough to keep in release builds, so the tested
// binary is the shipped binary (no build-tag skew between the chaos suite
// and production). Tests arm a point with a handler that panics, returns an
// error, cancels a context, or blocks to create a deterministic overlap
// window; the code under test must stay correct whichever the handler does.
//
// Handlers run on the goroutine that hits the point, so a panicking handler
// exercises exactly the recover/containment path a real bug at that line
// would take.
package faultpoint

import (
	"sync"
	"sync/atomic"
)

// The named points. Constants live here rather than at the use sites so the
// chaos tests and the instrumented packages cannot drift apart silently.
const (
	// SolverSolve fires at the top of every branch-and-bound solve, on the
	// goroutine running the solve (a sweep's solver goroutine for instance
	// solves, the search goroutine for completion solves).
	SolverSolve = "solver/solve"
	// CoreSweepFallback fires on the search goroutine between the two sweep
	// passes of core.Search: the pass aimed at the lower bound has ended with
	// no verified repetend and the unaimed pass has not started.
	CoreSweepFallback = "core/sweep-fallback"
	// EngineSingleflight fires on the singleflight leader after admission
	// but before the search runs — the window in which the leader holds a
	// cold-search slot and followers are parked on its flight call.
	EngineSingleflight = "engine/singleflight"
	// EngineSnapshotWrite fires inside the snapshot writer after the
	// payload is assembled but before the temp file is renamed into place,
	// so an armed fault leaves a torn temp file, never a torn snapshot.
	EngineSnapshotWrite = "engine/snapshot-write"
	// PeerServeEntry fires in the peer entry handler after the entry bytes
	// are assembled but before they are written. An armed error handler
	// makes the replica die mid-stream: the handler writes the checksummed
	// header plus half the payload and then tears the connection, so the
	// fetching replica receives a torn body its validation must reject.
	PeerServeEntry = "peer/serve-entry"
	// PeerServeHealth fires in the peer health handler before it reports.
	// An armed error handler makes the replica report unhealthy (503), so
	// chaos tests can flap a peer's health deterministically and watch the
	// prober eject and readmit it.
	PeerServeHealth = "peer/serve-health"
)

// armed counts currently armed points. The Inject fast path is one atomic
// load of this counter; the registry mutex is touched only while a chaos
// test has at least one point armed.
var armed atomic.Int32

var (
	mu       sync.Mutex
	handlers = map[string]func() error{}
)

// Inject invokes the handler armed at the named point, if any. Disarmed
// points return nil. The handler's panic (if it panics) propagates on the
// calling goroutine, exactly like a bug at the injection site would.
func Inject(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	fn := handlers[name]
	mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// Arm installs (or replaces) the handler for a point. Tests must pair every
// Arm with a Disarm or Reset — typically t.Cleanup(faultpoint.Reset) — so
// points never leak across tests.
func Arm(name string, fn func() error) {
	if fn == nil {
		Disarm(name)
		return
	}
	mu.Lock()
	if _, ok := handlers[name]; !ok {
		armed.Add(1)
	}
	handlers[name] = fn
	mu.Unlock()
}

// Disarm removes the handler for a point; disarming an unarmed point is a
// no-op.
func Disarm(name string) {
	mu.Lock()
	if _, ok := handlers[name]; ok {
		delete(handlers, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every point.
func Reset() {
	mu.Lock()
	for name := range handlers {
		delete(handlers, name)
		armed.Add(-1)
	}
	mu.Unlock()
}
