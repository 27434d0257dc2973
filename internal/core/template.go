package core

import (
	"context"
	"slices"
	"sync/atomic"

	"tessel/internal/repetend"
	"tessel/internal/sched"
	"tessel/internal/solver"
)

// The completion template of a Result: the phase solves its completions
// have run, each stored as the solver instance it answered and the solution
// it got. A repetend's warmup does not depend on N at all, and its cooldown
// at N+1 is, once the body is long enough to hide the warmup, the cooldown
// at N one micro-batch and one period later — so after the first completion
// an Extend to any other N finds both of its solves here and only unrolls
// and composes (§III-C: O(N·K) copying, no search).
//
// Nothing rests on that observation. A memo is keyed by the whole solver
// instance, normalized so that two instances share a key only if one is the
// other moved in time and in micro-batch index; an instance that is not
// stored is solved, and stored. Moving an instance moves its feasible
// schedules with it, so a replayed solution is as feasible and as good on
// the instance it is replayed for as on the one it was found for, whatever
// the solver would have done; and the solver is itself indifferent to both
// moves — it compares times with times and micro indices with micro indices,
// and reads neither alone — which is what makes a replay byte-identical to a
// fresh solve (template_test.go holds it to that on every catalog shape).
// completeSchedule validates every schedule it composes.
//
// A result's completions past n0 (firstTranslated) need no template at all
// once the result is certified: the certificate holds n0's parts and an
// Extend copies them. It is built on the first Extend to an n ≥ n0, from
// two completions of the path above, and kept beside the memos — like them
// never in a snapshot or a peer entry, which carry only the result.

// maxTemplateSolves bounds the memos one Result keeps; the oldest goes
// first. A result needs its warmup, a cooldown or two, and one whole-problem
// solve per N below N_R (at most 7 under DefaultMaxNR).
const maxTemplateSolves = 16

// phaseMemo is one solved phase. The key fields hold the solver's input
// normalized: micro indices relative to the first task's, times relative to
// the earliest moment a device that runs one of the phase's blocks is free
// (base). A release before base cannot bind — every start waits for its
// device — so it is stored as base. A device that runs none of the blocks is
// left out: the solver never reads its readiness but as a component common
// to every state it compares (TestSolveIgnoresIdleDeviceReady), so it takes
// no part in the instance, and a device that idles through the cooldown
// must not keep the base from moving with n.
type phaseMemo struct {
	blocks  []sched.Block // task order; Micro relative to blocks[0]
	release []int         // per task: max(Release − base, 0)
	ready   []int         // DeviceReady − base of each device that runs a block, in device order
	initMem []int
	memory  int
	nodes   int64 // the node budget the solve was proven optimal within
	starts  []int // the solution, per task, relative to base
	// truncated marks a solution the node budget cut short: not proven
	// optimal, but what this instance gets under this budget every time.
	truncated bool
}

// template is the memo list of one Result. The list is immutable once
// published: a store swaps in a new one, so concurrent Extends of a shared
// Result read it without a lock.
type template struct {
	memos atomic.Pointer[[]*phaseMemo]
	// cert is published once, by the first certification to finish, and
	// never replaced.
	cert atomic.Pointer[certificate]
}

// busyReady returns the readiness of each device that runs one of blocks, in
// device order (a device DeviceReady does not reach is ready at 0, as the
// solver reads it), and the earliest of them, the instance's time base.
func busyReady(p *sched.Placement, blocks []sched.Block, deviceReady []int) (ready []int, base int) {
	busy := make([]bool, p.NumDevices)
	for _, b := range blocks {
		for _, d := range p.Stages[b.Stage].Devices {
			busy[d] = true
		}
	}
	for d, on := range busy {
		if !on {
			continue
		}
		r := 0
		if d < len(deviceReady) {
			r = deviceReady[d]
		}
		if len(ready) == 0 || r < base {
			base = r
		}
		ready = append(ready, r)
	}
	return ready, base
}

// matches reports whether the instance — blocks in solver task order, their
// release times, the readiness of the devices they run on (busyReady) with
// its base, and the solver options — is the one m holds.
func (m *phaseMemo) matches(blocks []sched.Block, releases map[sched.Block]int, ready []int, base int, o solver.Options) bool {
	if len(blocks) != len(m.blocks) || len(ready) != len(m.ready) || o.Memory != m.memory ||
		o.MaxNodes != m.nodes || !slices.Equal(o.InitialMem, m.initMem) {
		return false
	}
	for i, r := range ready {
		if r-base != m.ready[i] {
			return false
		}
	}
	micro := blocks[0].Micro
	for i, b := range blocks {
		if b.Stage != m.blocks[i].Stage || b.Micro-micro != m.blocks[i].Micro || max(releases[b]-base, 0) != m.release[i] {
			return false
		}
	}
	return true
}

// lookup returns the stored solution of an instance over p, or nil when the
// instance has not been solved. Its start times are relative to base and are
// the template's own: read them, do not write them.
func (t *template) lookup(p *sched.Placement, blocks []sched.Block, releases map[sched.Block]int, o solver.Options) (m *phaseMemo, base int) {
	list := t.memos.Load()
	if list == nil {
		return nil, 0
	}
	ready, base := busyReady(p, blocks, o.DeviceReady)
	for _, m := range *list {
		if m.matches(blocks, releases, ready, base, o) {
			return m, base
		}
	}
	return nil, 0
}

// store publishes the solution of an instance and returns the memo that
// holds it — a new one, or the equal one a concurrent completion published
// first. The solution must be one the instance determines — proven optimal, or cut short by the
// node budget (truncated). A solve cut short by the wall-clock budget is
// not: its bytes depend on the machine's speed that day.
func (t *template) store(p *sched.Placement, blocks []sched.Block, releases map[sched.Block]int, o solver.Options, starts []int, truncated bool) *phaseMemo {
	ready, base := busyReady(p, blocks, o.DeviceReady)
	m := &phaseMemo{
		blocks:    make([]sched.Block, len(blocks)),
		release:   make([]int, len(blocks)),
		initMem:   slices.Clone(o.InitialMem),
		memory:    o.Memory,
		nodes:     o.MaxNodes,
		starts:    make([]int, len(blocks)),
		truncated: truncated,
	}
	for i, b := range blocks {
		m.blocks[i] = sched.Block{Stage: b.Stage, Micro: b.Micro - blocks[0].Micro}
		m.release[i] = max(releases[b]-base, 0)
		m.starts[i] = starts[i] - base
	}
	for _, r := range ready {
		m.ready = append(m.ready, r-base)
	}
	for {
		old := t.memos.Load()
		list := []*phaseMemo{m}
		if old != nil {
			for _, e := range *old {
				if e.matches(blocks, releases, ready, base, o) {
					return e // a concurrent completion solved the same instance
				}
			}
			list = append(list, (*old)[:min(len(*old), maxTemplateSolves-1)]...)
		}
		if t.memos.CompareAndSwap(old, &list) {
			return m
		}
	}
}

// certifiedOn is written only by tests: false makes Extend neither build nor
// use a certificate, so that every completion takes the replayed path.
var certifiedOn = true

// A certificate lets Extend compose a result's completion of any n ≥ n0
// micro-batches from n0's parts: its warmup, reps = n − N_R + 1 body
// instances unrolled at n0's δ, and its cooldown moved by n − n0 periods and
// micro-batches, merged in place — no solve, no release bookkeeping, no
// Validate. The makespan is Makespan(n0) + (n − n0)·Period: the latest finish
// is the body's or the cooldown's, both of which move (a device's warmup
// ends before its first body block starts).
//
// From n0 on the replayed path (completeSchedule) builds exactly that:
// the warmup's instance does not depend on n; every successor of a warmup
// block lies in the body, so δ is fixed and no warmup block releases a
// cooldown block; and the cooldown's instance — its blocks, their releases
// by the body's last instances, the devices' readiness and, with no memory
// drift, its entry memory — is n0's moved by n − n0 micro-batches and
// periods, which the template's memo key does not see, so n0's solution is
// replayed, moved.
//
// certify issues one only when that path at n_c = n0 + N_R — solves,
// merge and Validate — equals this composition item for item, with both
// solves answered by the memos n0's left (so neither was cut short by the
// wall clock, and the memo key saw n_c's cooldown as n0's moved). A valid
// n_c covers every n ≥ n0:
//   - each phase is valid on its own at every n: the warmup and the cooldown
//     are n0's, and the repetend keeps a device's blocks of one instance
//     within one period (E_d ≤ P), so no two instances meet on a device
//     however far apart;
//   - the junctions do not depend on n: the warmup ends on each device
//     before the body starts there and precedes only blocks of the first
//     reps0 = n0 − N_R + 1 instances, and the cooldown starts on each device
//     after the body's last instance there and follows only blocks of the
//     last N_R − 1;
//   - a dependency links blocks of one micro-batch, which lie at most
//     N_R − 1 instances apart, so n_c's reps0 + N_R instances hold both
//     junctions apart and every instance pair a dependency can link;
//   - memory is periodic: with no drift an instance frees on each device
//     what it takes, so through the body a device's live memory repeats
//     every period, and at the cooldown it holds what it held at n_c.
//
// So every constraint of the composition at n holds as its counterpart at
// n_c does. A result whose completion drifts in memory, or whose check
// fails, gets a refusal (n0 0) and keeps the replayed path; so does every n
// below n0, and any other memory cap or node budget than the certificate's.
type certificate struct {
	composition      // n0's, with the memos that answered its solves
	n0, makespan int // makespan: Makespan(n0)
	memory       int // the Options.Memory and SolverNodes it was built under
	nodes        int64
	truncated    bool // a phase solution was cut short by the node budget
}

// at returns the composition of n ≥ c.n0 micro-batches: n0's parts with the
// body's n − N_R + 1 instances. Its cooldown is n0's, to be moved by n − n0.
func (c *certificate) at(r *repetend.Repetend, n int) composition {
	at := c.composition
	at.reps = n - r.NR + 1
	return at
}

// extend composes the completion of n ≥ c.n0 micro-batches.
func (c *certificate) extend(p *sched.Placement, r *repetend.Repetend, n int) *sched.Schedule {
	at := c.at(r, n)
	return at.schedule(p, r, n-c.n0)
}

// firstTranslated returns n0 for r's completions: the first n whose body
// has as many instances, reps0 = n0 − N_R + 1, as the largest lag
// Assign[i] − Assign[j] of a dependency i→j (and at least one). A warmup
// block (i, m), m < Assign[i], precedes instance m − Assign[j] < reps0 of
// each successor j, and a cooldown block of j follows a body instance of
// each predecessor. At most 2·N_R − 2, since a lag is below N_R.
func firstTranslated(p *sched.Placement, r *repetend.Repetend) int {
	lag := 1
	for i, succs := range p.Deps {
		for _, j := range succs {
			lag = max(lag, r.Assign[i]-r.Assign[j])
		}
	}
	return r.NR - 1 + lag
}

// certified returns the certificate that composes res's completion of n
// micro-batches under opts, or nil for the replayed path. The first call for
// an n ≥ n0 certifies res; concurrent first calls each certify, and the
// first to finish publishes for all. An error is a completion's, and leaves
// nothing published.
func certified(ctx context.Context, res *Result, n int, opts Options) (*certificate, error) {
	if !certifiedOn {
		return nil, nil
	}
	c := res.tmpl.cert.Load()
	if c == nil {
		n0 := firstTranslated(res.Placement, res.Repetend)
		if n < n0 {
			return nil, nil
		}
		built, err := certify(ctx, res, n0, opts)
		if err != nil {
			return nil, err
		}
		if !res.tmpl.cert.CompareAndSwap(nil, built) {
			built = res.tmpl.cert.Load()
		}
		c = built
	}
	if c.n0 == 0 || n < c.n0 || c.memory != opts.Memory || c.nodes != opts.SolverNodes {
		return nil, nil
	}
	return c, nil
}

// certify runs res's completions at n0 and n_c = n0 + N_R under opts through
// its template and returns the certificate of n0's parts, or a refusal. Its
// solves count in no Stats: the Extend reports the completion it answers
// with.
func certify(ctx context.Context, res *Result, n0 int, opts Options) (*certificate, error) {
	p, r := res.Placement, res.Repetend
	refusal := &certificate{memory: opts.Memory, nodes: opts.SolverNodes}
	if !slices.Equal(repetend.EntryMemory(p, r.Assign, 0), repetend.EntryMemory(p, r.Assign, 1)) {
		return refusal, nil // memory drift: each instance leaves more held
	}
	var discard Stats
	at0, err := compose(ctx, p, r, n0, opts, &res.tmpl, &discard)
	if err != nil {
		return nil, err
	}
	nc := n0 + r.NR
	atc, err := compose(ctx, p, r, nc, opts, &res.tmpl, &discard)
	if err != nil {
		return nil, err
	}
	replayed := func(phase []sched.Item, m0, mc *phaseMemo) bool { return len(phase) == 0 || m0 != nil && m0 == mc }
	c := &certificate{
		composition: at0, n0: n0, memory: opts.Memory, nodes: opts.SolverNodes,
		truncated: at0.warmMemo != nil && at0.warmMemo.truncated || at0.coolMemo != nil && at0.coolMemo.truncated,
	}
	full := atc.schedule(p, r, 0)
	if !replayed(at0.warm, at0.warmMemo, atc.warmMemo) || !replayed(at0.cool, at0.coolMemo, atc.coolMemo) ||
		full.Validate(sched.ValidateOptions{Memory: opts.Memory}) != nil || !slices.Equal(full.Items, c.extend(p, r, nc).Items) {
		return refusal, nil
	}
	c.makespan = full.Makespan() - r.NR*r.Period
	return c, nil
}
