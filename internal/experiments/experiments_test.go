package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

var quick = Mode{Quick: true}

func TestFig2ImbalanceGrows(t *testing.T) {
	res, err := Fig2(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.ImbalanceX <= first.ImbalanceX {
		t.Fatalf("imbalance should grow with layers: %f → %f", first.ImbalanceX, last.ImbalanceX)
	}
	// The paper's 40-layer point shows a pronounced gap (3.4×); ours should
	// at least clearly exceed 2×.
	if last.ImbalanceX < 2 {
		t.Fatalf("40-layer imbalance = %f, want ≥ 2", last.ImbalanceX)
	}
	if last.SlowestSec <= last.FastestSec {
		t.Fatal("slowest not above fastest")
	}
	if !strings.Contains(res.String(), "Figure 2") {
		t.Fatal("printout missing header")
	}
}

func TestFig3TimeGrows(t *testing.T) {
	res, err := Fig3(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	// Search time at the largest point exceeds the smallest point.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Nodes <= first.Nodes {
		t.Fatalf("node count should grow: %d → %d", first.Nodes, last.Nodes)
	}
	// Makespans follow the M-shape optimum 18 + 9(n−1) — one micro-batch's
	// critical path, then one lower-bound period per further micro-batch —
	// while proofs complete.
	for _, row := range res.Rows {
		if row.Optimal && row.Makespan != 18+9*(row.MicroBatches-1) {
			t.Fatalf("nmb=%d makespan %d", row.MicroBatches, row.Makespan)
		}
	}
	if !strings.Contains(res.String(), "Figure 3") {
		t.Fatal("printout missing header")
	}
}

func TestTable2TesselZeroAndWins(t *testing.T) {
	res, err := Table2(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Tessel achieves zero bubble in the full sweep (Table II); the
		// quick mode caps N_R at 4, so allow the NR-limited residue while
		// still requiring Tessel to beat 1F1B+ where the latter is defined.
		if row.Tessel > 0.2 {
			t.Fatalf("%s: tessel bubble = %f", row.Model, row.Tessel)
		}
		// Quick mode caps both at ≈18% on the NN-shape; allow a small
		// epsilon (the full sweep gives Tessel 0%).
		if !math.IsNaN(row.OneFOneBPlus) && row.Tessel > row.OneFOneBPlus+0.01 {
			t.Fatalf("%s: tessel %f worse than 1F1B+ %f", row.Model, row.Tessel, row.OneFOneBPlus)
		}
		// 1F1B on its own V-shape is also zero.
		if row.OneFOneB > 0.02 {
			t.Fatalf("%s: 1F1B bubble = %f", row.Model, row.OneFOneB)
		}
		// 1F1B+ leaves a clearly positive bubble on GPT/mT5 and is
		// undefined (×) for Flava.
		if row.Model == "Flava" {
			if !math.IsNaN(row.OneFOneBPlus) {
				t.Fatalf("Flava 1F1B+ should be ×, got %f", row.OneFOneBPlus)
			}
		} else if row.OneFOneBPlus < 0.05 {
			t.Fatalf("%s: 1F1B+ bubble = %f, want clearly positive", row.Model, row.OneFOneBPlus)
		}
	}
	out := res.String()
	if !strings.Contains(out, "×") {
		t.Fatalf("missing × marker:\n%s", out)
	}
}

func TestFig8ChartsRender(t *testing.T) {
	res, err := Fig8(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 6 {
		t.Fatalf("entries = %d, want 6 (3 models × train/infer)", len(res.Entries))
	}
	for _, e := range res.Entries {
		if !strings.Contains(e.Chart, "dev0") {
			t.Fatalf("%s chart malformed:\n%s", e.Model, e.Chart)
		}
		if e.Period <= 0 || e.NR <= 0 {
			t.Fatalf("%s: period=%d NR=%d", e.Model, e.Period, e.NR)
		}
	}
}

func TestFig9TesselFasterAtScale(t *testing.T) {
	res, err := Fig9(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	if !strings.Contains(res.String(), "Figure 9") {
		t.Fatal("printout missing header")
	}
}

func TestFig10LazyNoWorseAndSameResult(t *testing.T) {
	res, err := Fig10(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.SamePeriod {
			t.Fatalf("%s: lazy search changed the searched result", row.Model)
		}
		frac := row.WarmupFrac + row.RepetendFrac + row.CooldownFrac
		if frac < 0.99 || frac > 1.01 {
			t.Fatalf("%s: fractions sum to %f", row.Model, frac)
		}
	}
}

func TestFig11MonotoneAndAnchors(t *testing.T) {
	res, err := Fig11(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	for name, series := range res.Series {
		for i := 1; i < len(series); i++ {
			if series[i] > series[i-1]+1e-9 {
				t.Fatalf("%s: bubble increased at NR=%d: %v", name, i+1, series)
			}
		}
	}
	// V-shape reaches zero exactly at NR = 4 (= #devices), the paper's
	// anchor.
	v := res.Series["v-shape"]
	if v[2] == 0 || v[3] != 0 {
		t.Fatalf("v-shape series %v: want first zero at NR=4", v)
	}
}

func TestFig12MonotoneInMemory(t *testing.T) {
	res, err := Fig12(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	for name, series := range res.Series {
		for i := 1; i < len(series); i++ {
			if series[i] > series[i-1]+1e-9 {
				t.Fatalf("%s: bubble increased with memory: %v", name, series)
			}
		}
		// Large memory reaches the unconstrained bubble (zero for all
		// shapes whose zero-NR is within the quick cap).
		if name == "v-shape" && series[len(series)-1] != 0 {
			t.Fatalf("v-shape at max memory: %v", series)
		}
	}
}

func TestFig13TesselWins(t *testing.T) {
	res, err := Fig13(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	pt := res.Points[0]
	// Chimera OOMs on GPT (the × of Figure 13).
	var chimeraOOM bool
	for _, sr := range pt.Systems {
		if sr.System == "Chimera" {
			chimeraOOM = sr.OOM
		}
	}
	if !chimeraOOM {
		t.Fatal("Chimera should OOM on GPT")
	}
	// Tessel beats 1F1B and 1F1B+ (the Figure 13 ordering).
	if s := res.Speedup(0, "1F1B"); s <= 1.0 {
		t.Fatalf("Tessel/1F1B speedup = %f, want > 1", s)
	}
	if s := res.Speedup(0, "1F1B+"); s <= 1.0 {
		t.Fatalf("Tessel/1F1B+ speedup = %f, want > 1", s)
	}
}

func TestFig14TesselWins(t *testing.T) {
	res, err := Fig14(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	// At 4 GPUs mT5-1.8B is small and the systems are close (the paper's
	// Figure 14 shows modest gaps there); the multi-server point is where
	// 1F1B's cross-server embedding hurts.
	last := len(res.Points) - 1
	if s := res.Speedup(last, "1F1B"); s <= 1.0 {
		t.Fatalf("Tessel/1F1B speedup at %d GPUs = %f, want > 1", res.Points[last].GPUs, s)
	}
	if !strings.Contains(res.String(), "Figure 14") {
		t.Fatal("printout missing header")
	}
}

func TestFig15TradeOff(t *testing.T) {
	res, err := Fig15(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	// Single micro-batch: TP has the lowest latency; Tessel beats 1F1B
	// (branches run concurrently).
	pt := res.Points[0]
	if pt.LatencyUs["TP"] >= pt.LatencyUs["1F1B"] {
		t.Fatalf("TP latency %d not below 1F1B %d", pt.LatencyUs["TP"], pt.LatencyUs["1F1B"])
	}
	if pt.LatencyUs["Tessel"] >= pt.LatencyUs["1F1B"] {
		t.Fatalf("Tessel latency %d not below 1F1B %d", pt.LatencyUs["Tessel"], pt.LatencyUs["1F1B"])
	}
	// At larger counts Tessel's throughput beats TP (the 1.5× claim).
	last := res.Points[len(res.Points)-1]
	if last.Throughput["Tessel"] <= last.Throughput["TP"] {
		t.Fatalf("Tessel throughput %f not above TP %f", last.Throughput["Tessel"], last.Throughput["TP"])
	}
}

func TestFig16WaitNearTheory(t *testing.T) {
	res, err := Fig16(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.OOM {
			continue
		}
		// §VI-E: measured wait stays within a few percent of theory; allow
		// a loose bound since the simulator adds communication.
		if row.WaitFrac < row.Ideal-0.02 {
			t.Fatalf("%s/%s: measured wait %f below theory %f", row.Family, row.System, row.WaitFrac, row.Ideal)
		}
		if row.WaitFrac > row.Ideal+0.25 {
			t.Fatalf("%s/%s: measured wait %f too far above theory %f", row.Family, row.System, row.WaitFrac, row.Ideal)
		}
	}
}

func TestFig17NonBlockingHelps(t *testing.T) {
	res, err := Fig17(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row.SpeedupX < 1.0 {
			t.Fatalf("%s %dGPUs: non-blocking slower (%.2fx)", row.Family, row.GPUs, row.SpeedupX)
		}
	}
}

func TestTable3Prints(t *testing.T) {
	res, err := Table3(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"GPT-11B", "mT5-88B", "8192"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run(context.Background(), "nope", quick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll covers every driver; skipped in -short")
	}
	var buf bytes.Buffer
	if err := RunAll(context.Background(), &buf, quick); err != nil {
		t.Fatalf("RunAll: %v\noutput:\n%s", err, buf.String())
	}
	for _, name := range Experiment {
		if !strings.Contains(buf.String(), "["+name+" completed") {
			t.Fatalf("experiment %s missing from output", name)
		}
	}
}
