package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tessel/internal/core"
)

// Fig3Row is one point of Figure 3: the wall-clock time of the time-optimal
// (TO) whole-problem solve on the M-shape placement as micro-batches grow.
type Fig3Row struct {
	MicroBatches int
	SearchTime   time.Duration
	Makespan     int
	Optimal      bool // false once the node budget truncates the proof
	Nodes        int64
}

// Fig3Result is the Figure 3 sweep.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 reproduces Figure 3: exact schedule search time for an increasing
// number of micro-batches. The per-point budget bounds the exponential
// blow-up the figure demonstrates; truncated points are reported as
// non-optimal.
//
// The paper draws it on the V-shape placement. This solver's one-machine bound
// proves V- and K-shape whole problems at the root for every N (one node), so
// the figure runs on the M-shape placement (fwd=1, bwd=2, 4 devices), where
// exact search still blows up: 65, 1,905, 51,453 nodes for N = 2, 3, 4 with
// the barrier bound (164, 4,886, 111,756 before it), and N = 5 is unproven
// after 3 M nodes either way.
func Fig3(ctx context.Context, m Mode) (*Fig3Result, error) {
	p := UnitShapes()["m-shape"]
	points := []int{1, 2, 3, 4, 5, 6}
	budget := int64(3_000_000)
	if m.Quick {
		points = []int{1, 2, 3, 4}
		budget = 100_000
	}
	res := &Fig3Result{}
	for _, n := range points {
		_, sres, err := core.TimeOptimal(ctx, p, n, core.Options{SolverNodes: budget})
		if err != nil {
			return nil, fmt.Errorf("fig3: n=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, Fig3Row{
			MicroBatches: n,
			SearchTime:   sres.Elapsed,
			Makespan:     sres.Makespan,
			Optimal:      sres.Optimal,
			Nodes:        sres.Nodes,
		})
	}
	return res, nil
}

// String prints the Figure 3 series.
func (r *Fig3Result) String() string {
	var b strings.Builder
	b.WriteString(header("Figure 3: time-optimal search time vs micro-batches (M-shape)"))
	fmt.Fprintf(&b, "%-6s %-12s %-10s %-8s %s\n", "nmb", "search", "makespan", "proven", "nodes")
	for _, row := range r.Rows {
		proven := "yes"
		if !row.Optimal {
			proven = "budget"
		}
		fmt.Fprintf(&b, "%-6d %-12s %-10d %-8s %d\n",
			row.MicroBatches, fmtDuration(row.SearchTime), row.Makespan, proven, row.Nodes)
	}
	return b.String()
}
