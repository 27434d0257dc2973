package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tessel/internal/core"
)

// Fig10Row holds the search-time breakdown for one model placement and the
// lazy-search ablation.
type Fig10Row struct {
	Model string
	// WarmupFrac/RepetendFrac/CooldownFrac decompose the search time
	// (Figure 10(a)).
	WarmupFrac, RepetendFrac, CooldownFrac float64
	// WarmupNodes and RepetendNodes are the solver nodes behind the split:
	// core.Stats.WarmupNodes and SolverNodes, the same on every run at one
	// Workers setting.
	WarmupNodes, RepetendNodes int64
	// LazyTime and EagerTime are total search times with and without the
	// lazy-search optimization (Figure 10(b)).
	LazyTime, EagerTime time.Duration
	// SamePeriod confirms §V's claim that lazy search does not change the
	// searched result.
	SamePeriod bool
}

// Fig10Result is the Figure 10 study.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 reproduces Figure 10: (a) the distribution of search time across
// warmup/repetend/cooldown phases with lazy search enabled, and (b) the
// relative cost without the lazy-search optimization.
func Fig10(ctx context.Context, m Mode) (*Fig10Result, error) {
	shapes := UnitShapes()
	res := &Fig10Result{}
	for _, name := range ModelOrder {
		p := shapes[ModelShapes[name]]
		lazy, err := core.Search(ctx, p, searchOpts(m))
		if err != nil {
			return nil, fmt.Errorf("fig10: %s: %w", p.Name, err)
		}
		eagerOpts := searchOpts(m)
		eagerOpts.DisableLazy = true
		eager, err := core.Search(ctx, p, eagerOpts)
		if err != nil {
			return nil, fmt.Errorf("fig10: %s eager: %w", p.Name, err)
		}
		ph := lazy.Stats.Phase
		total := ph.Warmup + ph.Repetend + ph.Cooldown
		if total == 0 {
			total = time.Nanosecond
		}
		res.Rows = append(res.Rows, Fig10Row{
			Model:         name,
			WarmupFrac:    float64(ph.Warmup) / float64(total),
			RepetendFrac:  float64(ph.Repetend) / float64(total),
			CooldownFrac:  float64(ph.Cooldown) / float64(total),
			WarmupNodes:   lazy.Stats.WarmupNodes,
			RepetendNodes: lazy.Stats.SolverNodes,
			LazyTime:      lazy.Stats.Total,
			EagerTime:     eager.Stats.Total,
			SamePeriod:    lazy.Repetend.Period == eager.Repetend.Period,
		})
	}
	return res, nil
}

// String prints the Figure 10 rows.
func (r *Fig10Result) String() string {
	var b strings.Builder
	b.WriteString(header("Figure 10: search time breakdown and lazy-search ablation"))
	fmt.Fprintf(&b, "%-8s %-9s %-9s %-9s %-13s %-13s %-10s %-12s %-10s %s\n",
		"model", "warmup", "repetend", "cooldown", "warmup nodes", "rep. nodes", "lazy", "w/o lazy", "rel", "same result")
	for _, row := range r.Rows {
		rel := float64(row.EagerTime) / float64(maxDuration(row.LazyTime, time.Microsecond))
		fmt.Fprintf(&b, "%-8s %-9s %-9s %-9s %-13d %-13d %-10s %-12s %-10s %v\n",
			row.Model, pct(row.WarmupFrac), pct(row.RepetendFrac), pct(row.CooldownFrac), row.WarmupNodes, row.RepetendNodes,
			fmtDuration(row.LazyTime), fmtDuration(row.EagerTime),
			fmt.Sprintf("%.2fx", rel), row.SamePeriod)
	}
	return b.String()
}
