// Package serve is the serving side of the counterparity fixture: it
// declares the search stats payload and imports core, so rule 2 runs here.
// In searchStatsJSON, solver_nodes and period_probes are matched (the
// Solver prefix drops); NRSwept has no tag and is reported at the payload
// anchor.
package serve

import (
	"tessel/internal/lint/testdata/src/counterparity/core"
)

type searchStatsJSON struct { // want "Stats counter NRSwept is not exposed"
	SolverNodes  int64 `json:"solver_nodes"`
	PeriodProbes int64 `json:"period_probes"`
}

// Render keeps the core import live.
func Render(s core.Stats) searchStatsJSON {
	return searchStatsJSON{SolverNodes: s.SolverNodes, PeriodProbes: s.PeriodProbes}
}
