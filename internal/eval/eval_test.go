package eval

import (
	"math"
	"math/rand"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/topk"
)

func makeSplit(t *testing.T) dataset.Split {
	t.Helper()
	trainB := cuboid.NewBuilder(2, 2, 10)
	testB := cuboid.NewBuilder(2, 2, 10)
	// user 0, t 0: train {0,1}, test {2,3}
	trainB.MustAdd(0, 0, 0, 1)
	trainB.MustAdd(0, 0, 1, 1)
	testB.MustAdd(0, 0, 2, 1)
	testB.MustAdd(0, 0, 3, 1)
	// user 1, t 1: train {5}, test {6}
	trainB.MustAdd(1, 1, 5, 1)
	testB.MustAdd(1, 1, 6, 1)
	// user 1, t 0: train only (no query)
	trainB.MustAdd(1, 0, 9, 1)
	return dataset.Split{Train: trainB.Build(), Test: testB.Build()}
}

func TestBuildQueries(t *testing.T) {
	qs := BuildQueries(makeSplit(t))
	if len(qs) != 2 {
		t.Fatalf("got %d queries, want 2", len(qs))
	}
	q0 := qs[0]
	if q0.U != 0 || q0.T != 0 || !q0.Test[2] || !q0.Test[3] || !q0.Train[0] || !q0.Train[1] {
		t.Errorf("query 0 = %+v", q0)
	}
	q1 := qs[1]
	if q1.U != 1 || q1.T != 1 || !q1.Test[6] || !q1.Train[5] {
		t.Errorf("query 1 = %+v", q1)
	}
}

func TestSampleQueries(t *testing.T) {
	qs := make([]Query, 10)
	for i := range qs {
		qs[i].U = i
	}
	sampled := SampleQueries(qs, 3)
	if len(sampled) != 3 {
		t.Fatalf("sampled %d, want 3", len(sampled))
	}
	if sampled[0].U != 0 {
		t.Error("sampling should keep the first query")
	}
	if got := SampleQueries(qs, 20); len(got) != 10 {
		t.Error("oversampling should return all queries")
	}
	if got := SampleQueries(qs, 0); len(got) != 10 {
		t.Error("n<=0 should return all queries")
	}
}

// fixedRanker returns a predetermined ranking regardless of the query.
func fixedRanker(items ...int) Ranker {
	return func(u, t, k int, exclude topk.Exclude) []topk.Result {
		var out []topk.Result
		for _, v := range items {
			if exclude != nil && exclude(v) {
				continue
			}
			if len(out) == k {
				break
			}
			out = append(out, topk.Result{Item: v, Score: 1})
		}
		return out
	}
}

func TestEvaluatePerfectRanker(t *testing.T) {
	// One query, test = {2,3}; ranker returns exactly them first.
	sp := makeSplit(t)
	qs := BuildQueries(sp)[:1]
	curve := Evaluate(fixedRanker(2, 3, 7, 8), qs, 4, 1)
	if len(curve) != 4 {
		t.Fatalf("curve length %d", len(curve))
	}
	// k=1: P=1, NDCG=1, recall=1/2, F1=2*(1*0.5)/1.5=2/3.
	m1 := curve.At(1)
	if math.Abs(m1.Precision-1) > 1e-12 || math.Abs(m1.NDCG-1) > 1e-12 {
		t.Errorf("k=1 metrics = %+v", m1)
	}
	if math.Abs(m1.F1-2.0/3) > 1e-12 {
		t.Errorf("k=1 F1 = %v, want 2/3", m1.F1)
	}
	// k=2: both hit → P=1, NDCG=1, recall=1 → F1=1; MRR=1 (hit at 1).
	m2 := curve.At(2)
	if math.Abs(m2.Precision-1) > 1e-12 || math.Abs(m2.NDCG-1) > 1e-12 || math.Abs(m2.F1-1) > 1e-12 {
		t.Errorf("k=2 metrics = %+v", m2)
	}
	if math.Abs(m2.Recall-1) > 1e-12 || math.Abs(m2.MRR-1) > 1e-12 {
		t.Errorf("k=2 recall/MRR = %v/%v, want 1/1", m2.Recall, m2.MRR)
	}
	// k=4: P=0.5, recall=1, F1=2/3; NDCG=1 (IDCG capped at numTest).
	m4 := curve.At(4)
	if math.Abs(m4.Precision-0.5) > 1e-12 || math.Abs(m4.NDCG-1) > 1e-12 {
		t.Errorf("k=4 metrics = %+v", m4)
	}
}

func TestEvaluateMissRanker(t *testing.T) {
	sp := makeSplit(t)
	qs := BuildQueries(sp)[:1]
	curve := Evaluate(fixedRanker(7, 8, 9), qs, 3, 1)
	for k := 1; k <= 3; k++ {
		m := curve.At(k)
		if m.Precision != 0 || m.NDCG != 0 || m.F1 != 0 {
			t.Errorf("all-miss metrics at k=%d = %+v", k, m)
		}
	}
}

func TestEvaluateRankPositionMatters(t *testing.T) {
	sp := makeSplit(t)
	qs := BuildQueries(sp)[:1]
	hitFirst := Evaluate(fixedRanker(2, 7), qs, 2, 1).At(2)
	hitSecond := Evaluate(fixedRanker(7, 2), qs, 2, 1).At(2)
	if hitFirst.NDCG <= hitSecond.NDCG {
		t.Errorf("NDCG should reward earlier hits: first %v vs second %v", hitFirst.NDCG, hitSecond.NDCG)
	}
	if hitFirst.Precision != hitSecond.Precision {
		t.Errorf("precision should not depend on position at same k")
	}
	if math.Abs(hitFirst.MRR-1) > 1e-12 || math.Abs(hitSecond.MRR-0.5) > 1e-12 {
		t.Errorf("MRR = %v/%v, want 1 and 0.5", hitFirst.MRR, hitSecond.MRR)
	}
}

func TestEvaluateExcludesTrainItems(t *testing.T) {
	sp := makeSplit(t)
	qs := BuildQueries(sp)[:1]
	// Ranker tries to return train items 0,1 first; they must be
	// filtered so the hits at position 1-2 are the test items.
	curve := Evaluate(fixedRanker(0, 1, 2, 3), qs, 2, 1)
	if math.Abs(curve.At(2).Precision-1) > 1e-12 {
		t.Errorf("train items not excluded: P@2 = %v", curve.At(2).Precision)
	}
}

func TestEvaluateAveragesAcrossQueries(t *testing.T) {
	sp := makeSplit(t)
	qs := BuildQueries(sp)
	// Ranker hits only query 0 (items 2,3 are test for q0; item 6 for
	// q1 never returned).
	curve := Evaluate(fixedRanker(2, 3), qs, 1, 2)
	if math.Abs(curve.At(1).Precision-0.5) > 1e-12 {
		t.Errorf("P@1 = %v, want 0.5 (one of two queries hit)", curve.At(1).Precision)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	if Evaluate(fixedRanker(1), nil, 5, 1) != nil {
		t.Error("no queries should yield nil curve")
	}
	sp := makeSplit(t)
	if Evaluate(fixedRanker(1), BuildQueries(sp), 0, 1) != nil {
		t.Error("maxK=0 should yield nil curve")
	}
}

func TestIDCG(t *testing.T) {
	if got := idcg(3, 10); math.Abs(got-(1+1/math.Log2(3)+1/math.Log2(4))) > 1e-12 {
		t.Errorf("idcg(3,10) = %v", got)
	}
	if got := idcg(10, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("idcg(10,1) = %v, want 1", got)
	}
	if idcg(5, 0) != 0 {
		t.Error("idcg with no test items should be 0")
	}
}

// miniScorer is a tiny deterministic TopicScorer for exercising the
// TA evaluation paths without training a model.
type miniScorer struct {
	topics  [][]float64 // K×V
	queries [][]float64 // (u*2+t)-indexed ϑq
}

func (m *miniScorer) Name() string               { return "mini" }
func (m *miniScorer) NumItems() int              { return len(m.topics[0]) }
func (m *miniScorer) NumTopics() int             { return len(m.topics) }
func (m *miniScorer) TopicItems(z int) []float64 { return m.topics[z] }
func (m *miniScorer) QueryWeights(u, t int) []float64 {
	return m.queries[u*2+t]
}
func (m *miniScorer) Score(u, t, v int) float64 {
	var s float64
	for z, w := range m.QueryWeights(u, t) {
		s += w * m.topics[z][v]
	}
	return s
}

// EvaluateTA (the batch serving path) must produce the exact curve of
// evaluating the Threshold Algorithm one Index.Query at a time: both
// fold the ranked lists in query order, so the curves agree bit for bit
// at every worker count and on every run, however the goroutines that
// ranked them were scheduled. The world is large enough (300 queries)
// that a fold in completion order would not.
func TestEvaluateTAMatchesTARanker(t *testing.T) {
	const users, items = 150, 60
	rng := rand.New(rand.NewSource(5))
	m := &miniScorer{topics: make([][]float64, 4), queries: make([][]float64, users*2)}
	for z := range m.topics {
		m.topics[z] = make([]float64, items)
		for v := range m.topics[z] {
			m.topics[z][v] = rng.Float64()
		}
	}
	trainB := cuboid.NewBuilder(users, 2, items)
	testB := cuboid.NewBuilder(users, 2, items)
	for q := range m.queries {
		m.queries[q] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		for n := 0; n < 6; n++ {
			b := trainB
			if n%3 == 0 {
				b = testB
			}
			b.MustAdd(q/2, q%2, rng.Intn(items), 1)
		}
	}
	ix := topk.BuildIndex(m)
	queries := BuildQueries(dataset.Split{Train: trainB.Build(), Test: testB.Build()})
	taRanker := func(u, t, k int, exclude topk.Exclude) []topk.Result {
		res, _ := ix.Query(m, u, t, k, exclude)
		return res
	}
	want := EvaluateTA(ix, m, queries, 5, 1)
	if len(queries) != 2*users || len(want) != 5 || want.At(5).Recall <= 0 {
		t.Fatalf("%d queries, curve %+v", len(queries), want)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for name, got := range map[string]Curve{
			"EvaluateTA": EvaluateTA(ix, m, queries, 5, workers),
			"Evaluate":   Evaluate(taRanker, queries, 5, workers),
		} {
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: curve length %d, want %d", name, workers, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("%s workers=%d k=%d: %+v != %+v", name, workers, k+1, got[k], want[k])
				}
			}
		}
	}
	if EvaluateTA(ix, m, nil, 5, 0) != nil {
		t.Error("no queries should yield nil curve")
	}
	if EvaluateTA(ix, m, queries, 0, 0) != nil {
		t.Error("maxK<=0 should yield nil curve")
	}
}
