package baseline

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tessel/internal/placement"
	"tessel/internal/sched"
)

var updateGolden = flag.Bool("update-golden", false, "re-record testdata/baselines.golden.txt from the code under test")

const goldenBaselinesPath = "testdata/baselines.golden.txt"

// goldenBaselineLines runs every generator over every shape, training and
// inference, D ∈ {2,3,4,6,8} and n ∈ {0,1,2,3,5,8,13,24}, one line per case:
// the schedule's fingerprint, or the error text. A shape that cannot be built
// on D devices (K-shape on an odd D) has no lines.
func goldenBaselineLines() []string {
	gens := []struct {
		name string
		fn   func(*sched.Placement, int) (*sched.Schedule, error)
	}{
		{"1f1b", OneFOneB},
		{"1f1b+", OneFOneBPlus},
		{"1f1b+virtual", onePlusVirtual},
		{"1f1b+grouped", onePlusGrouped},
		{"gpipe", GPipe},
		{"chimera", ChimeraDirect},
		{"sequential", Sequential},
	}
	shapes := []struct {
		name string
		fn   func(placement.Config) (*sched.Placement, error)
	}{
		{"v-shape", placement.VShape},
		{"x-shape", placement.XShape},
		{"m-shape", placement.MShape},
		{"k-shape", placement.KShape},
		{"nn-shape", placement.NNShape},
	}
	var lines []string
	for _, g := range gens {
		for _, sh := range shapes {
			for _, mode := range []string{"train", "infer"} {
				for _, d := range []int{2, 3, 4, 6, 8} {
					p, err := sh.fn(placement.Config{Devices: d})
					if err != nil {
						continue
					}
					if mode == "infer" {
						p = placement.Inference(p)
					}
					for _, n := range []int{0, 1, 2, 3, 5, 8, 13, 24} {
						out := "error: "
						if s, err := g.fn(p, n); err != nil {
							out += err.Error()
						} else {
							out = sched.FingerprintSchedule(s)
						}
						lines = append(lines, fmt.Sprintf("%s %s %s D=%d n=%d %s", g.name, sh.name, mode, d, n, out))
					}
				}
			}
		}
	}
	return lines
}

// TestGoldenBaselines holds every predefined schedule to the bytes recorded
// before the generators were rewritten around one 1F1B step rule, error text
// included (n = 0 must fail on its micro-batch count before anything else).
func TestGoldenBaselines(t *testing.T) {
	got := strings.Join(goldenBaselineLines(), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenBaselinesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenBaselinesPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d golden lines, want %d", len(gl), len(wl))
	}
	bad := 0
	for i := range gl {
		if gl[i] != wl[i] {
			if bad++; bad <= 10 {
				t.Errorf("got  %s\nwant %s", gl[i], wl[i])
			}
		}
	}
	t.Fatalf("%d of %d lines differ", bad, len(gl))
}
