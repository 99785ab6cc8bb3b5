package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json is read by a driver that refuses a file outside its
// limits before a single run; this test applies the same limits, and
// checks that the file and the program agree on every name.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(keys))
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v", spec.Paths)
	}
	if len(spec.Command) < 2 || !strings.HasPrefix(spec.Command[1], spec.Paths[0]+"/") {
		t.Errorf("command %v names a file outside paths", spec.Command)
	}
	want := allWorkloads[:4] // train_batch is run by hand: see allWorkloads
	if len(spec.Workloads) != len(want) {
		t.Fatalf("%d workloads", len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != want[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, want[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	// The driver makes 4 + 22 × workloads runs inside 3420 s.
	runs := 4 + 22*len(spec.Workloads)
	if perRun := 3420 / runs; perRun < spec.RunSeconds+15 {
		t.Errorf("%d runs leave %d s each: no room for set-up around a %d s window", runs, perRun, spec.RunSeconds)
	}

	e2e := map[string]bool{}
	for _, m := range spec.EndToEnd {
		checkName(m.Name)
		e2e[m.Name] = true
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, n := range []string{mSetup, mP50, mQPS, mCPU, mPeakMB} {
		if !e2e[n] {
			t.Errorf("end_to_end lacks %s, which every black-box run reports", n)
		}
	}
	if len(e2e) != 5 {
		t.Errorf("end_to_end has %d metrics; the program reports 5", len(e2e))
	}
	layer := map[string]bool{}
	for _, m := range spec.PerLayer {
		checkName(m.Name)
		layer[m.Name] = true
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("%s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	for _, n := range []string{lHandleUS, lAllocs, lBytes, lReloadMS, lStepFirstMS, lStepLastMS, lStepCover, lRestartMS,
		lHitRatio, lStale, lGetNS, lPutNS, lQueryUS, lExamined, lListPops, lScreened,
		lCoordUS, lLegUS, lMergeUS, lPartialBytes, lAppendUS, lRefreshUS, lReplayRate,
		lApplyDeltaMS, lCuboidMS, lAdvanceMS, lBuildIndexMS, lLoadMS, lBundleBytes, lSaveMS,
		lDatasetMS, lWeightingMS, lIterMS, lEStepMS, lMStepMS, lCellsPerS, lEvalMS, lPrecision} {
		if !layer[n] {
			t.Errorf("per_layer lacks %s, which a traced run reports", n)
		}
		delete(layer, n)
	}
	for n := range layer {
		t.Errorf("per_layer names %s, which no traced run reports", n)
	}
}

// conform is what stands between a run and the driver's "every metric,
// exactly": it must refuse a missing end-to-end metric and an unknown
// one, and fill a layer the workload never entered with zero.
func TestConform(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	r := newResult(wServeHot, 1, 1, 0, stamp{})
	r.set(mSetup, 1)
	if err := r.conform(spec); err == nil {
		t.Error("a black-box result without p50_us conformed")
	}
	r = newResult(wServeHot, 1, 1, 1, stamp{})
	r.set(lHandleUS, 4)
	if err := r.conform(spec); err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(spec.PerLayer) || r.Metrics[lHandleUS].Unit != "us" || r.Metrics[lIterMS].Value != 0 {
		t.Errorf("traced result conformed to %d metrics", len(r.Metrics))
	}
	r = newResult(wServeHot, 1, 1, 1, stamp{})
	r.set("made.up", 1)
	if err := r.conform(spec); err == nil {
		t.Error("a metric BENCHMARK.json does not name conformed")
	}
}
