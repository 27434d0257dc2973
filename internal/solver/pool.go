package solver

import (
	"context"
	"sync"
)

// Pool recycles searchers — task-graph CSR arrays, frontier and per-depth
// candidate buffers, the dominance-memo arenas, greedy scratch — across
// Solve calls. A repetend sweep issues hundreds of instance solves; routing
// them through one Pool makes each solve allocation-free in the steady
// state instead of rebuilding every structure from scratch.
//
// A Pool is safe for concurrent use: concurrent solves draw distinct
// searchers. The zero value is ready to use.
type Pool struct {
	p sync.Pool
}

// NewPool returns an empty searcher pool.
func NewPool() *Pool { return &Pool{} }

// Solve is Solve running on a recycled searcher. Results are identical to
// the package-level Solve — a searcher is fully re-initialized per call —
// only the allocation behavior differs. A nil *Pool falls back to the
// package's shared pool, so callers can thread an optional pool without
// branching.
func (pl *Pool) Solve(ctx context.Context, tasks []Task, opts Options) (Result, error) {
	if pl == nil {
		pl = defaultPool
	}
	s, _ := pl.p.Get().(*searcher)
	if s == nil {
		s = &searcher{}
	}
	res, err := s.solve(ctx, tasks, opts)
	pl.p.Put(s)
	return res, err
}

// defaultPool backs the package-level Solve, so every caller shares the
// recycling even without threading a Pool explicitly.
var defaultPool = NewPool()
