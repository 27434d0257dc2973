package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"testing"

	"tessel/internal/sched"
)

var updateGolden = flag.Bool("update-golden", false, "re-record testdata/search.golden.json from the code under test")

const goldenSearchPath = "testdata/search.golden.json"

// goldenSearch is what one search returned at the recording commit: a catalog
// placement (catalogShapes) searched with default options, or with lazy
// search switched off.
type goldenSearch struct {
	Name        string `json:"name"`
	Variant     string `json:"variant,omitempty"` // "", nolazy
	Period      int    `json:"period"`
	NR          int    `json:"nr"`
	N           int    `json:"n"`
	Makespan    int    `json:"makespan"`
	Truncated   bool   `json:"truncated"`
	Fingerprint string `json:"fingerprint"`
}

func (g *goldenSearch) options(t testing.TB) (*sched.Placement, Options) {
	p, opts := catalogPlacement(t, g.Name)
	switch g.Variant {
	case "":
	case "nolazy":
		opts.DisableLazy = true
	default:
		t.Fatalf("unknown golden variant %q", g.Variant)
	}
	return p, opts
}

func goldenSearchInputs() []goldenSearch {
	var gs []goldenSearch
	for _, c := range catalogShapes {
		gs = append(gs, goldenSearch{Name: c.name})
	}
	// One solver-bound, one memory-capped, one that cannot reach the lower
	// bound, one period-bound.
	for _, name := range []string{"m4", "k6m8", "x8m4", "v6"} {
		gs = append(gs, goldenSearch{Name: name, Variant: "nolazy"})
	}
	return gs
}

// TestGoldenSearch holds Search to the schedules recorded at the commit before
// the sweep was aimed at the lower bound (58c95c1): repetend period, N_R and
// the fingerprint of the completed schedule for every catalog placement under
// Workers 1, 2 and 4, and with lazy search off on four of them. The
// prunes added since only discard work that could not have changed the answer,
// so nothing here may move unless the recording itself was budget-truncated.
func TestGoldenSearch(t *testing.T) {
	if *updateGolden {
		gs := goldenSearchInputs()
		for i := range gs {
			g := &gs[i]
			p, opts := g.options(t)
			opts.Workers = 1
			res, err := Search(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name, g.Variant, err)
			}
			g.Period, g.NR, g.N, g.Makespan = res.Repetend.Period, res.Repetend.NR, res.N, res.Makespan
			g.Truncated, g.Fingerprint = res.Stats.Truncated, sched.FingerprintSchedule(res.Full)
		}
		writeGolden(t, goldenSearchPath, gs)
		return
	}
	gs := readGolden[goldenSearch](t, goldenSearchPath)
	if want := len(goldenSearchInputs()); len(gs) != want {
		t.Fatalf("%d golden searches, want %d", len(gs), want)
	}
	for i := range gs {
		g := &gs[i]
		workers := []int{1, 2, 4}
		if g.Variant != "" {
			workers = []int{2}
		}
		if testing.Short() {
			workers = workers[:1]
		}
		t.Run(g.Name+g.Variant, func(t *testing.T) {
			if g.Truncated {
				t.Skip("recorded from a budget-truncated search")
			}
			for _, w := range workers {
				p, opts := g.options(t)
				opts.Workers = w
				res, err := Search(context.Background(), p, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if res.Repetend.Period != g.Period || res.Repetend.NR != g.NR || res.N != g.N || res.Makespan != g.Makespan {
					t.Fatalf("workers=%d: period %d N_R %d n %d makespan %d, recorded %d %d %d %d", w,
						res.Repetend.Period, res.Repetend.NR, res.N, res.Makespan, g.Period, g.NR, g.N, g.Makespan)
				}
				if res.Stats.Truncated {
					t.Fatalf("workers=%d: search truncated, recorded proven", w)
				}
				if fp := sched.FingerprintSchedule(res.Full); fp != g.Fingerprint {
					t.Fatalf("workers=%d: schedule fingerprint %s, recorded %s", w, fp, g.Fingerprint)
				}
			}
		})
	}
}

const goldenRandomPath = "testdata/search_random.golden.json"

// goldenRandom is what one search of a random placement returned at the
// recording commit: searchOutcome's period, N_R, assignment and schedule
// fingerprint, or its error text.
type goldenRandom struct {
	Name    string `json:"name"`
	Outcome string `json:"outcome"`
}

// goldenRandomInputs draws the placements of TestGoldenSearchRandom: 120 the
// way internal/repetend's search differential draws them (seed 17) and 120
// memory-capped ones the way TestBestFirstFallbackDifferential draws them
// (seed 33).
func goldenRandomInputs(t testing.TB) (ps []*sched.Placement, memory []int) {
	for _, c := range []struct {
		seed   int64
		capped bool
	}{{17, false}, {33, true}} {
		rng := rand.New(rand.NewSource(c.seed))
		for range 120 {
			p, m, err := randomShape(rng, c.capped)
			if err != nil {
				t.Fatal(err)
			}
			ps, memory = append(ps, p), append(memory, m)
		}
	}
	return ps, memory
}

// TestGoldenSearchRandom holds Search to the schedules it returned at the
// commit before the instance-solve cache was deleted (c7f28bd) on 240 seeded
// random placements off the catalog, at N = 8 with default budgets, for
// Workers 1 and 2: period, N_R, assignment and the fingerprint of the
// completed schedule, or the same error. Nothing here may move.
func TestGoldenSearchRandom(t *testing.T) {
	ps, memory := goldenRandomInputs(t)
	search := func(i, workers int) string {
		got, res := searchOutcome(ps[i], Options{Memory: memory[i], N: 8, Workers: workers})
		if res != nil && res.Stats.Truncated {
			t.Fatalf("%s workers=%d: search truncated", ps[i].Name, workers)
		}
		return got
	}
	if *updateGolden {
		gs := make([]goldenRandom, len(ps))
		for i, p := range ps {
			gs[i] = goldenRandom{p.Name, search(i, 1)}
		}
		writeGolden(t, goldenRandomPath, gs)
		return
	}
	gs := readGolden[goldenRandom](t, goldenRandomPath)
	if len(gs) != len(ps) {
		t.Fatalf("%d golden searches, want %d", len(gs), len(ps))
	}
	workers := []int{1, 2}
	if testing.Short() {
		workers = workers[:1]
	}
	for i, g := range gs {
		if g.Name != ps[i].Name {
			t.Fatalf("golden search %d is %s, drawn %s", i, g.Name, ps[i].Name)
		}
		for _, w := range workers {
			if got := search(i, w); got != g.Outcome {
				t.Fatalf("%s workers=%d: %s; recorded %s", g.Name, w, got, g.Outcome)
			}
		}
	}
}

// writeGolden writes records to path as a JSON array, one record a line.
func writeGolden[T any](t *testing.T, path string, records []T) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i := range records {
		line, err := json.Marshal(records[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		if i < len(records)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden[T any](t *testing.T, path string) []T {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []T
	if err := json.Unmarshal(raw, &records); err != nil {
		t.Fatal(err)
	}
	return records
}
