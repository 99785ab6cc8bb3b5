package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// resultSet is the results of one or more runs of one commit, grouped
// by workload and trace mode.
type resultSet map[string][]*result

func setKey(workload string, trace int) string { return fmt.Sprintf("%s/trace%d", workload, trace) }

// loadResults reads one result file, or every result-*.json of a
// directory.
func loadResults(path string) (resultSet, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
	}
	set := resultSet{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		k := setKey(r.Workload, r.Trace)
		set[k] = append(set[k], &r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no result-*.json", path)
	}
	return set, nil
}

// side is one metric on one side of a comparison.
type side struct {
	median, spread float64
	runs           int
	spec           value
}

// sideOf summarises a metric over a side's runs. With several runs the
// spread is the runs' interquartile distance over their median, as the
// driver computes it; a single run falls back on the quartiles of its
// own time slices.
func sideOf(runs []*result, metric string) (side, bool) {
	var vals []float64
	var s side
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.Value)
			s.spec = v
		}
	}
	if len(vals) == 0 {
		return s, false
	}
	s.runs = len(vals)
	if len(vals) == 1 {
		s.median = vals[0]
		s.spread = spreadShare(s.spec.Q1, s.spec.Value, s.spec.Q3)
		return s, true
	}
	q1, med, q3 := quartiles(vals)
	s.median, s.spread = med, spreadShare(q1, med, q3)
	return s, true
}

// verdict applies a metric's recorded bound to the two sides' medians.
// worse is how much b is worse than a, as a share of a.
func verdict(a, b side) (worse float64, word string) {
	if a.median == 0 {
		return 0, "unresolved"
	}
	worse = (b.median - a.median) / a.median
	if a.spec.Better == "higher" {
		worse = -worse
	}
	bound := a.spec.Bound
	switch {
	case bound == 0:
		return worse, "-" // a per-layer metric: reported, not judged
	case a.spread > bound || b.spread > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	case worse < -bound:
		return worse, "improved"
	}
	return worse, "ok"
}

func maxFailRatio(runs []*result) float64 {
	var m float64
	for _, r := range runs {
		if r.FailRatio > m {
			m = r.FailRatio
		}
	}
	return m
}

// compareMain implements -compare. One argument prints each metric's
// median and run-to-run spread; two arguments judge the second against
// the first and return 1 on any regression or rise in fail_ratio.
func compareMain(args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: tcambench -compare A [B]   (each a result file or a directory of result-*.json)")
		return 2
	}
	a, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcambench:", err)
		return 2
	}
	if len(args) == 1 {
		printSpread(os.Stdout, a)
		return 0
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcambench:", err)
		return 2
	}
	if compareSets(os.Stdout, a, b) {
		return 1
	}
	return 0
}

func printSpread(w io.Writer, a resultSet) {
	fmt.Fprintf(w, "%-28s %-30s %14s %-6s %8s %5s %7s\n", "workload", "metric", "median", "unit", "spread", "runs", "bound")
	for _, k := range sortedKeys(a) {
		for _, m := range sortedKeys(a[k][0].Metrics) {
			s, _ := sideOf(a[k], m)
			if s.median == 0 && s.spec.Bound == 0 {
				continue // a layer this workload never enters
			}
			fmt.Fprintf(w, "%-28s %-30s %14.4f %-6s %7.2f%% %5d %6.0f%%\n", k, m, s.median, s.spec.Unit, 100*s.spread, s.runs, 100*s.spec.Bound)
		}
	}
}

// compareSets prints one row per (workload, metric) and reports whether
// anything regressed.
func compareSets(w io.Writer, a, b resultSet) (regressed bool) {
	fmt.Fprintf(w, "%-28s %-30s %14s %8s %14s %8s %8s  %s\n", "workload", "metric", "A median", "A spread", "B median", "B spread", "worse", "verdict")
	for _, k := range sortedKeys(a) {
		if len(b[k]) == 0 {
			fmt.Fprintf(w, "%-28s missing from B\n", k)
			continue
		}
		for _, m := range sortedKeys(a[k][0].Metrics) {
			sa, _ := sideOf(a[k], m)
			sb, ok := sideOf(b[k], m)
			if !ok || (sa.median == 0 && sb.median == 0) {
				continue
			}
			worse, word := verdict(sa, sb)
			regressed = regressed || word == "regressed"
			fmt.Fprintf(w, "%-28s %-30s %14.4f %7.2f%% %14.4f %7.2f%% %+7.2f%%  %s\n",
				k, m, sa.median, 100*sa.spread, sb.median, 100*sb.spread, 100*worse, word)
		}
		fa, fb := maxFailRatio(a[k]), maxFailRatio(b[k])
		word := "ok"
		if fb > fa {
			word, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-28s %-30s %14.6f %8s %14.6f %8s %8s  %s\n", k, "fail_ratio", fa, "", fb, "", "", word)
	}
	return regressed
}
