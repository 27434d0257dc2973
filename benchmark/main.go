// Command benchmark is the repository's benchmark: it builds `tessel serve`
// from the checkout, runs it as a subprocess with default flags, drives it
// over real HTTP with four workloads, verifies every schedule it returns,
// and reports the end-to-end metrics and a per-layer table.
//
//	go run ./benchmark                       all workloads, timed then traced
//	go run ./benchmark -workload hot_extend  one workload
//	go run ./benchmark -compare a.json b.json
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. Without it, both runs
// are made for every workload and written to benchmark/out/result.json,
// with the spans of the traced runs in benchmark/out/trace.json.
//
// See README.md in this directory for the workloads, the metric glossary
// and how the metrics interact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result as the last line (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of the request sequences")
		seconds = flag.Int("seconds", 20, "length of one measured window")
		trace   = flag.Int("trace", 0, "with -workload: 0 = timed run, end-to-end metrics; 1 = traced run, per-layer metrics")
		compare = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare base.json new.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	//tessel:waive:ctxflow the benchmark is a main program; this is the root context, cancelled on Ctrl-C so the server subprocess is stopped
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Machine    string `json:"machine"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim     *string                    `json:"claim"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

func run(ctx context.Context, name string, seed int64, window time.Duration, traced bool) error {
	if window < time.Second {
		return fmt.Errorf("-seconds must be at least 1")
	}
	selected := workloads
	if name != "" {
		wl := findWorkload(name)
		if wl == nil {
			return fmt.Errorf("no workload %q", name)
		}
		selected = []workload{*wl}
	}
	// Without -workload both runs are made; with it, the one -trace selects.
	timed, traced := name == "" || !traced, name == "" || traced
	b := &bench{paths: paths{root: ".", out: "benchmark/out"}, seed: seed, window: window, setups: 3}
	var err error
	if b.serverBin, err = b.buildBinary(ctx, "./cmd/tessel", "tessel"); err != nil {
		return err
	}
	if traced {
		if b.probeBin, err = b.buildBinary(ctx, "./benchmark/layerprobe", "layerprobe"); err != nil {
			return err
		}
	}

	file := resultFile{
		Machine: machineName(), Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(ctx), Seed: seed, Seconds: int(window / time.Second), Workloads: map[string]*workloadResult{},
	}
	var spans []span
	var last *runResult
	for i := range selected {
		wl := &selected[i]
		wr := &workloadResult{}
		file.Workloads[wl.name] = wr
		if timed {
			if wr.EndToEnd, err = b.timedRun(ctx, wl); err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			last = wr.EndToEnd
			printResult(os.Stdout, "end to end", last, endToEnd)
		}
		if traced {
			var s []span
			if wr.PerLayer, s, err = b.tracedRun(ctx, wl); err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			spans = append(spans, s...)
			last = wr.PerLayer
			printResult(os.Stdout, "per layer", last, perLayer)
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.out, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if spans != nil {
		if err := writeChromeTrace(filepath.Join(b.out, "trace.json"), spans); err != nil {
			return err
		}
	}
	if name != "" {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		return printDriverLine(last, defs)
	}
	for _, wr := range file.Workloads {
		if !wr.EndToEnd.Correct || !wr.PerLayer.Correct {
			return fmt.Errorf("%s: %d failed operations", wr.EndToEnd.Workload, wr.EndToEnd.Failed+wr.PerLayer.Failed)
		}
	}
	return nil
}

// printResult prints every metric of one run by name, with its unit.
func printResult(w *os.File, kind string, r *runResult, defs []metricDef) {
	fmt.Fprintf(w, "== %s · %s · attempted %d, failed %d, %d bodies verified in full, calib %.1f ms\n",
		r.Workload, kind, r.Attempted, r.Failed, r.Verified, r.CalibMS)
	for _, def := range defs {
		v := r.Metrics[def.name]
		fmt.Fprintf(w, "%-40s %14.4f %-6s", def.name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(w, " n=%d", v.Samples)
		}
		if v.IQR > 0 {
			fmt.Fprintf(w, " iqr=%.4f", v.IQR)
		}
		fmt.Fprintln(w)
	}
	if kind == "end to end" {
		n := r.Metrics["latency_p95_ms"].Samples
		fmt.Fprintf(w, "%-40s %14.1f (highest percentile with ten samples beyond it, of %d)\n", "latency tail supported", tailPercentile(n), n)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAILED", f)
	}
}

// printDriverLine prints the one-line result the benchmark driver reads.
func printDriverLine(r *runResult, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, def := range defs {
		v := r.Metrics[def.name]
		out.Metrics[def.name] = value{v.Value, v.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// commit is the checkout's short commit, or "unknown" outside a git clone.
func commit(ctx context.Context) string {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// machineName is the CPU model from /proc/cpuinfo with the OS and arch.
func machineName() string {
	model := "unknown cpu"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s (%s/%s)", model, runtime.GOOS, runtime.GOARCH)
}
