package main

// -compare: two result files side by side, one row per workload and
// end-to-end metric, judged against the metric's own bound.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// calibTolerance is how far the two files' machine calibration may differ
// before their timings stop being comparable.
const calibTolerance = 0.05

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares one metric of one workload. worse is the share of the base
// value by which the new value is worse (negative when it is better). A
// metric beyond its bound is a regression unless the two machines were not
// equally fast, or the metric's own spread within the runs is as large as
// the excess; then the pair cannot resolve it.
func judge(def metricDef, base, cur metricValue, calibBase, calibCur float64) (worse float64, v verdict) {
	if base.Value == 0 {
		return 0, verdictUnresolved
	}
	worse = (cur.Value - base.Value) / base.Value
	if def.better == "higher" {
		worse = -worse
	}
	if worse <= def.bound {
		return worse, verdictOK
	}
	if def.unit != "ratio" && calibBase > 0 && math.Abs(calibCur-calibBase)/calibBase > calibTolerance {
		return worse, verdictUnresolved
	}
	if spread := (base.IQR + cur.IQR) / 2 / base.Value; worse-def.bound < spread {
		return worse, verdictUnresolved
	}
	return worse, verdictRegressed
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints the comparison table and reports whether any metric
// regressed.
func compareFiles(w io.Writer, basePath, curPath string) (regressed bool, err error) {
	base, err := readResult(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readResult(curPath)
	if err != nil {
		return false, err
	}
	return compareResults(w, base, cur), nil
}

func compareResults(w io.Writer, base, cur *resultFile) (regressed bool) {
	fmt.Fprintf(w, "base %s (%s, %d cores)  new %s (%s, %d cores)\n", base.Commit, base.Machine, base.Cores, cur.Commit, cur.Machine, cur.Cores)
	fmt.Fprintf(w, "%-12s %-24s %12s %12s %8s %7s  %s\n", "workload", "metric", "base", "new", "worse", "bound", "verdict")
	for i := range workloads {
		name := workloads[i].name
		b, c := base.Workloads[name], cur.Workloads[name]
		if b == nil || c == nil || b.EndToEnd == nil || c.EndToEnd == nil {
			fmt.Fprintf(w, "%-12s missing from one of the files\n", name)
			continue
		}
		if c.EndToEnd.Failed > b.EndToEnd.Failed {
			fmt.Fprintf(w, "%-12s %-24s %12d %12d %8s %7s  %s\n", name, "failed", b.EndToEnd.Failed, c.EndToEnd.Failed, "", "0", verdictRegressed)
			regressed = true
		}
		for _, def := range endToEnd {
			bv, cv := b.EndToEnd.Metrics[def.name], c.EndToEnd.Metrics[def.name]
			worse, v := judge(def, bv, cv, b.EndToEnd.CalibMS, c.EndToEnd.CalibMS)
			fmt.Fprintf(w, "%-12s %-24s %12.4f %12.4f %+7.1f%% %6.1f%%  %s\n", name, def.name, bv.Value, cv.Value, 100*worse, 100*def.bound, v)
			regressed = regressed || v == verdictRegressed
		}
	}
	return regressed
}
