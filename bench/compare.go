package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of comparing one metric on one workload across two runs.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares a metric's baseline a with its candidate b. Sim and
// count metrics repeat exactly, so any movement is real: a gain of any
// size is improved, a loss beyond the bound regressed. A wall metric moves
// with the host, so it is improved or regressed only beyond the bound, and
// when its run-to-run spread (the distance between its quartiles over its
// median) exceeds the bound it cannot be told from noise and is unresolved
// rather than unchanged.
func judge(a, b metricValue, better string, bound float64) string {
	for _, v := range []metricValue{a, b} {
		if v.Samples != nil && v.Samples.spread() > bound {
			return unresolved
		}
	}
	worse := (b.Value - a.Value) / math.Abs(a.Value)
	if better == "higher" {
		worse = -worse
	}
	gain := 0.0
	if a.Clock == "wall" {
		gain = bound
	}
	switch {
	case worse > bound:
		return regressed
	case worse < -gain:
		return improved
	}
	return unchanged
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := new(suiteResult)
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints a verdict per (end-to-end metric, workload), lists
// the exact-repeat per-layer metrics that differ, and reports whether
// anything regressed.
func compareFiles(out io.Writer, pathA, pathB string) (anyRegressed bool, err error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(out, "note: seeds differ (%d vs %d): sim and count metrics are not expected to match\n", a.Seed, b.Seed)
	}
	tally := make(map[string]int)
	fmt.Fprintf(out, "%-10s %-14s %14s %14s %8s  %s\n", "workload", "metric", "baseline", "candidate", "change", "verdict")
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %s missing from one of the files", w.name)
		}
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			bound := d.Bound
			if d.Clock != "wall" && a.Seed == b.Seed {
				bound = exactRepeatBound
			}
			verdict := judge(va, vb, d.Better, bound)
			tally[verdict]++
			fmt.Fprintf(out, "%-10s %-14s %14.6g %14.6g %+7.2f%%  %s\n",
				w.name, d.Name, va.Value, vb.Value, 100*(vb.Value-va.Value)/va.Value, verdict)
		}
		if ra.Failed != rb.Failed || ra.Attempted != rb.Attempted {
			fmt.Fprintf(out, "%-10s failed/attempted %d/%d vs %d/%d\n", w.name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			if rb.Failed*ra.Attempted > ra.Failed*rb.Attempted {
				tally[regressed]++
			}
		}
		var differ []string
		for name, la := range ra.PerLayer {
			if lb, ok := rb.PerLayer[name]; ok && la.Clock != "wall" && la.Value != lb.Value {
				differ = append(differ, fmt.Sprintf("%s %g -> %g %s", name, la.Value, lb.Value, la.Unit))
			}
		}
		sort.Strings(differ)
		for _, line := range differ {
			fmt.Fprintf(out, "%-10s per-layer %s  changed\n", w.name, line)
		}
	}
	fmt.Fprintf(out, "%d improved, %d unchanged, %d regressed, %d unresolved\n",
		tally[improved], tally[unchanged], tally[regressed], tally[unresolved])
	return tally[regressed] > 0, nil
}
