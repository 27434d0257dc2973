package experiments

import (
	"context"
	"fmt"
	"strings"

	"tessel/internal/core"
	"tessel/internal/placement"
	"tessel/internal/viz"
)

// Fig8Entry is one searched schedule of Figure 8: a model's placement with
// its training or inference schedule rendered as an ASCII Gantt chart.
type Fig8Entry struct {
	Model     string
	Placement string
	Inference bool
	NR        int
	Period    int
	Bubble    float64
	Chart     string
}

// Fig8Result holds the six charts of Figure 8 (three models × train/infer).
type Fig8Result struct {
	Entries []Fig8Entry
}

// Fig8 reproduces Figure 8: the searched training and inference schedules
// for the GPT (M-shape), mT5 (NN-shape) and Flava (K-shape) placements,
// with repetend boundaries marked.
func Fig8(ctx context.Context, m Mode) (*Fig8Result, error) {
	shapes := UnitShapes()
	res := &Fig8Result{}
	for _, name := range ModelOrder {
		train := shapes[ModelShapes[name]]
		infer := placement.Inference(train)
		for _, v := range []struct {
			inference bool
		}{{false}, {true}} {
			p := train
			if v.inference {
				p = infer
			}
			sres, err := core.Search(ctx, p, searchOpts(m))
			if err != nil {
				return nil, fmt.Errorf("fig8: %s inference=%v: %w", name, v.inference, err)
			}
			rep := sres.Repetend
			chart := viz.RenderRepetend(rep.Unroll(3), rep.Period, 3, viz.Options{MaxWidth: 100})
			res.Entries = append(res.Entries, Fig8Entry{
				Model:     name,
				Placement: p.Name,
				Inference: v.inference,
				NR:        rep.NR,
				Period:    rep.Period,
				Bubble:    sres.BubbleRate,
				Chart:     chart,
			})
		}
	}
	return res, nil
}

// String prints the Figure 8 charts.
func (r *Fig8Result) String() string {
	var b strings.Builder
	b.WriteString(header("Figure 8: searched schedules (repetend boundaries marked with |)"))
	for _, e := range r.Entries {
		mode := "training"
		if e.Inference {
			mode = "inference"
		}
		fmt.Fprintf(&b, "\n%s %s (%s): NR=%d period=%d bubble=%s\n%s",
			e.Model, mode, e.Placement, e.NR, e.Period, pct(e.Bubble), e.Chart)
	}
	return b.String()
}
