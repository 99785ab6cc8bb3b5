package main

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// The reference server is driven by the same client loop as the real
// servers, so its answers must pass the same structural check: exactly
// k items, scores non-increasing. That holds for a single process and
// for a front over two leaves.
func TestReferenceAnswersPassTheStructuralCheck(t *testing.T) {
	table := newRefTable()
	leafA := httptest.NewServer(&refHandler{table: table})
	defer leafA.Close()
	leafB := httptest.NewServer(&refHandler{table: table})
	defer leafB.Close()
	front := httptest.NewServer(&refHandler{table: table, leaves: []string{leafA.URL, leafB.URL}, hc: newHTTPClient(4)})
	defer front.Close()
	for _, c := range []struct {
		workload, base string
	}{{wServeHot, leafA.URL}, {wServeCold, leafA.URL}, {wServeSharded, front.URL}} {
		tgt := &target{hc: newHTTPClient(2), base: c.base, reqs: refStream(1, refConfigs[c.workload]), next: new(atomic.Int64)}
		lr := closedLoop(context.Background(), tgt, 2, 50*time.Millisecond)
		if lr.failed > 0 || lr.ok() == 0 {
			t.Errorf("%s: %d of %d failed: %v", c.workload, lr.failed, lr.attempted, lr.firstErr)
		}
	}
}

func TestRefStreamFollowsTheSeed(t *testing.T) {
	a, b, c := refStream(1, refConfigs[wServeCold]), refStream(1, refConfigs[wServeCold]), refStream(2, refConfigs[wServeCold])
	for i := range a {
		if a[i].Path != b[i].Path {
			t.Fatalf("request %d differs under one seed", i)
		}
	}
	if a[0].Path == c[0].Path {
		t.Error("another seed gives the same stream")
	}
}

// Every workload that is measured against the reference needs both a
// configuration and the nominal figures that fix its scale.
func TestEveryReferenceHasNominalFigures(t *testing.T) {
	for w := range refConfigs {
		n, ok := refNominal[w]
		if !ok || !(n.p50US > 0 && n.qps > 0 && n.cpuUS > 0) {
			t.Errorf("%s: nominal figures %+v", w, n)
		}
	}
	if len(refNominal) != len(refConfigs) {
		t.Errorf("%d nominal entries for %d configurations", len(refNominal), len(refConfigs))
	}
}

// One pair of slices: each side gets one slice and one rate, and the
// two results line up index by index.
func TestPairedLoopAlternates(t *testing.T) {
	table := newRefTable()
	a := httptest.NewServer(&refHandler{table: table})
	defer a.Close()
	b := httptest.NewServer(&refHandler{table: table})
	defer b.Close()
	mk := func(base string) *target {
		return &target{hc: newHTTPClient(2), base: base, reqs: refStream(1, refConfigs[wServeHot]), next: new(atomic.Int64)}
	}
	s, f := pairedLoop(context.Background(), mk(a.URL), mk(b.URL), 2, 2*pairSlice)
	for name, lr := range map[string]*loadResult{"sut": s, "ref": f} {
		if len(lr.slices) != 1 || len(lr.rates) != 1 || lr.failed != 0 || len(lr.slices[0]) != lr.ok() || !(lr.rates[0] > 0) {
			t.Errorf("%s: %d slices, %d rates, %d of %d failed", name, len(lr.slices), len(lr.rates), lr.failed, lr.attempted)
		}
	}
}

// The compute probe must be the same work every time it is taken:
// sweeps never update the model they read.
func TestComputeProbeRepeatsTheSameWork(t *testing.T) {
	m := newProbeModel(1)
	if a, b := m.sweep(), m.sweep(); a != b || !(a > 0) {
		t.Errorf("two sweeps gave %v and %v", a, b)
	}
	c := newComputeProbe()
	c.take()
	c.take()
	if len(c.ms) != 2 || !(c.factor() > 0) {
		t.Errorf("timings %v, factor %v", c.ms, c.factor())
	}
}
