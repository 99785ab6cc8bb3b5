package main

import (
	"io"
	"testing"
)

func e2e(vals ...float64) []*result {
	var out []*result
	for _, v := range vals {
		out = append(out, &result{Workload: "w", Metrics: map[string]value{
			"p50_us": {Value: v, Unit: "us", Better: "lower", Bound: 0.10},
			"qps":    {Value: 1e6 / v, Unit: "1/s", Better: "higher", Bound: 0.10},
		}})
	}
	return out
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{101, 100, 100, 99, 102}, "ok"},
		{"slower", []float64{120, 121, 119, 120, 122}, "regressed"},
		{"faster", []float64{80, 81, 79, 80, 82}, "improved"},
		{"noisy", []float64{70, 100, 130, 85, 115}, "unresolved"},
	}
	for _, c := range cases {
		for _, metric := range []string{"p50_us", "qps"} {
			sa, _ := sideOf(e2e(steady...), metric)
			sb, _ := sideOf(e2e(c.b...), metric)
			if _, got := verdict(sa, sb); got != c.want {
				t.Errorf("%s/%s: verdict %q, want %q", c.name, metric, got, c.want)
			}
		}
	}
}

// A single run has no run-to-run spread; its slices' quartiles stand in.
func TestSingleRunUsesSliceSpread(t *testing.T) {
	one := []*result{{Workload: "w", Metrics: map[string]value{
		"p99_us": {Value: 100, Q1: 80, Q3: 120, Unit: "us", Better: "lower", Bound: 0.15}}}}
	s, ok := sideOf(one, "p99_us")
	if !ok || s.spread != 0.4 {
		t.Fatalf("side = %+v", s)
	}
	if _, got := verdict(s, s); got != "unresolved" {
		t.Errorf("verdict %q, want unresolved", got)
	}
}

func TestCompareFlagsRegressionAndFailures(t *testing.T) {
	a := resultSet{"w/trace0": e2e(100, 101, 99, 100)}
	if compareSets(io.Discard, a, resultSet{"w/trace0": e2e(100, 100, 101, 99)}) {
		t.Error("equal sets reported as regressed")
	}
	if !compareSets(io.Discard, a, resultSet{"w/trace0": e2e(130, 131, 129, 130)}) {
		t.Error("30 % slower not reported")
	}
	failing := e2e(100, 101, 99, 100)
	failing[0].FailRatio = 0.01
	if !compareSets(io.Discard, a, resultSet{"w/trace0": failing}) {
		t.Error("a rise in fail_ratio not reported")
	}
}
