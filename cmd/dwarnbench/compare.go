package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// verdict compares one metric of one workload between two run files.
type verdict struct {
	Workload, Metric string
	Unit             string
	Base, New        float64 // medians
	NBase, NNew      int     // runs on each side
	// Change is the relative change of the median, signed so that a
	// positive change is a regression whichever way the metric is better.
	Change float64
	// Spread is the larger side's interquartile range over its median.
	Spread  float64
	Bound   float64
	Verdict string
}

// untracedValues collects every untraced run's value of each end-to-end
// metric, by workload.
func untracedValues(rf *RunFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, p := range rf.Passes {
		for _, r := range p.Workloads {
			if r.Traced {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out
}

// compareRuns judges every (workload, end-to-end metric) present on
// both sides against its bound. A regression or improvement beyond the
// bound is worse or better; a change within it is within bound; and
// when either side's own runs spread wider than the bound, the pair is
// unresolved unless every run of one side beats every run of the other.
func compareRuns(base, next *RunFile, bounds map[string]float64) []verdict {
	bv, nv := untracedValues(base), untracedValues(next)
	var workloads []string
	for w := range bv {
		if _, ok := nv[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	var out []verdict
	for _, w := range workloads {
		for _, def := range endToEnd {
			b, n := bv[w][def.Name], nv[w][def.Name]
			bound, ok := bounds[def.Name]
			if len(b) == 0 || len(n) == 0 || !ok {
				continue
			}
			out = append(out, judge(w, def, b, n, bound))
		}
	}
	return out
}

func judge(w string, def metricDef, b, n []float64, bound float64) verdict {
	v := verdict{Workload: w, Metric: def.Name, Unit: def.Unit, Base: median(b), New: median(n),
		NBase: len(b), NNew: len(n), Bound: bound, Spread: math.Max(spread(b), spread(n))}
	sign := 1.0 // lower is better: an increase is a regression
	if def.Better == "higher" {
		sign = -1
	}
	if v.Base != 0 {
		v.Change = sign * (v.New - v.Base) / math.Abs(v.Base)
	}
	// worseThan reports whether x reads worse than y.
	worseThan := func(x, y float64) bool { return sign*(x-y) > 0 }
	allWorse, allBetter := true, true
	for _, x := range n {
		for _, y := range b {
			if !worseThan(x, y) {
				allWorse = false
			}
			if !worseThan(y, x) {
				allBetter = false
			}
		}
	}
	switch {
	case v.Spread > bound && v.Change > bound && allWorse:
		v.Verdict = verdictWorse
	case v.Spread > bound && v.Change < -bound && allBetter:
		v.Verdict = verdictBetter
	case v.Spread > bound:
		v.Verdict = verdictUnresolved
	case v.Change > bound:
		v.Verdict = verdictWorse
	case v.Change < -bound:
		v.Verdict = verdictBetter
	default:
		v.Verdict = verdictWithin
	}
	return v
}

func printVerdicts(w io.Writer, vs []verdict) (worse int) {
	fmt.Fprintf(w, "%-15s %-22s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "base", "new", "change", "spread", "bound", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-15s %-22s %12.5g %12.5g %+7.2f%% %7.2f%% %5.0f%%  %s (n=%d/%d)\n",
			v.Workload, v.Metric, v.Base, v.New, 100*v.Change, 100*v.Spread, 100*v.Bound, v.Verdict, v.NBase, v.NNew)
		if v.Verdict == verdictWorse {
			worse++
		}
	}
	return worse
}
