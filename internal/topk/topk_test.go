package topk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tcam/internal/model"
)

// fakeTopicModel is a hand-built TopicScorer for exercising TA without
// training anything.
type fakeTopicModel struct {
	topics  [][]float64 // K×V item weights
	queries map[[2]int][]float64
}

func (f *fakeTopicModel) Name() string   { return "fake" }
func (f *fakeTopicModel) NumItems() int  { return len(f.topics[0]) }
func (f *fakeTopicModel) NumTopics() int { return len(f.topics) }
func (f *fakeTopicModel) TopicItems(z int) []float64 {
	return f.topics[z]
}
func (f *fakeTopicModel) QueryWeights(u, t int) []float64 {
	if q, ok := f.queries[[2]int{u, t}]; ok {
		return q
	}
	q := make([]float64, len(f.topics))
	for i := range q {
		q[i] = 1 / float64(len(q))
	}
	return q
}
func (f *fakeTopicModel) Score(u, t, v int) float64 {
	q := f.QueryWeights(u, t)
	var s float64
	for z, w := range q {
		s += w * f.topics[z][v]
	}
	return s
}

var _ model.TopicScorer = (*fakeTopicModel)(nil)

// queryWith answers the explicit ϑq vector q through ix, which must
// have been built from f: the fake returns q for query (0, 0).
func queryWith(ix *Index, f *fakeTopicModel, q []float64, k int, exclude Exclude) ([]Result, Stats) {
	f.queries[[2]int{0, 0}] = q
	return ix.Query(f, 0, 0, k, exclude)
}

func randomModel(rng *rand.Rand, k, v int) *fakeTopicModel {
	f := &fakeTopicModel{queries: map[[2]int][]float64{}}
	for z := 0; z < k; z++ {
		row := make([]float64, v)
		var sum float64
		for i := range row {
			row[i] = rng.Float64()
			sum += row[i]
		}
		for i := range row {
			row[i] /= sum
		}
		f.topics = append(f.topics, row)
	}
	return f
}

func randomQuery(rng *rand.Rand, k int, zeros bool) []float64 {
	q := make([]float64, k)
	var sum float64
	for i := range q {
		if zeros && rng.Float64() < 0.4 {
			continue
		}
		q[i] = rng.Float64()
		sum += q[i]
	}
	if sum == 0 {
		// All-zero queries are a documented degenerate case (TA returns
		// nil; see TestTAAllZeroQuery) — keep random queries proper.
		q[0] = 1
		sum = 1
	}
	for i := range q {
		q[i] /= sum
	}
	return q
}

func TestBruteForceOrdering(t *testing.T) {
	f := &fakeTopicModel{topics: [][]float64{{0.1, 0.5, 0.2, 0.2}}, queries: map[[2]int][]float64{}}
	res, st := BruteForce(f, 0, 0, 2, nil)
	if len(res) != 2 || res[0].Item != 1 || res[1].Item != 2 {
		t.Fatalf("BruteForce = %+v, want items [1 2]", res)
	}
	if st.ItemsExamined != 4 {
		t.Errorf("ItemsExamined = %d, want 4", st.ItemsExamined)
	}
}

func TestBruteForceTieBreaksByItem(t *testing.T) {
	f := &fakeTopicModel{topics: [][]float64{{0.25, 0.25, 0.25, 0.25}}, queries: map[[2]int][]float64{}}
	res, _ := BruteForce(f, 0, 0, 3, nil)
	if res[0].Item != 0 || res[1].Item != 1 || res[2].Item != 2 {
		t.Fatalf("tie-break order = %+v, want [0 1 2]", res)
	}
}

func TestBruteForceExclude(t *testing.T) {
	f := &fakeTopicModel{topics: [][]float64{{0.1, 0.5, 0.2, 0.2}}, queries: map[[2]int][]float64{}}
	res, _ := BruteForce(f, 0, 0, 2, func(v int) bool { return v == 1 })
	for _, r := range res {
		if r.Item == 1 {
			t.Fatal("excluded item recommended")
		}
	}
}

func TestBruteForceZeroK(t *testing.T) {
	f := &fakeTopicModel{topics: [][]float64{{1}}, queries: map[[2]int][]float64{}}
	if res, _ := BruteForce(f, 0, 0, 0, nil); res != nil {
		t.Error("k=0 should return nil")
	}
}

func TestTAMatchesBruteForceSimple(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := randomModel(rng, 5, 50)
	ix := BuildIndex(f)
	for k := 1; k <= 12; k++ {
		ta, _ := ix.Query(f, 0, 0, k, nil)
		bf, _ := BruteForce(f, 0, 0, k, nil)
		assertSameResults(t, ta, bf)
	}
}

func assertSameResults(t *testing.T, ta, bf []Result) {
	t.Helper()
	if len(ta) != len(bf) {
		t.Fatalf("length mismatch: TA %d vs BF %d", len(ta), len(bf))
	}
	for i := range ta {
		if ta[i].Item != bf[i].Item {
			t.Fatalf("rank %d: TA item %d vs BF item %d (TA=%v BF=%v)", i, ta[i].Item, bf[i].Item, ta, bf)
		}
		if diff := ta[i].Score - bf[i].Score; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("rank %d: score mismatch %v vs %v", i, ta[i].Score, bf[i].Score)
		}
	}
}

func TestTAExaminesFewerItems(t *testing.T) {
	// Skewed topics: a few heavy items per topic → TA should stop early.
	f := &fakeTopicModel{queries: map[[2]int][]float64{}}
	const k, v = 8, 2000
	for z := 0; z < k; z++ {
		row := make([]float64, v)
		row[z*10] = 0.5
		row[z*10+1] = 0.3
		rest := 0.2 / float64(v-2)
		for i := range row {
			if row[i] == 0 {
				row[i] = rest
			}
		}
		f.topics = append(f.topics, row)
	}
	ix := BuildIndex(f)
	res, st := ix.Query(f, 0, 0, 10, nil)
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	if st.ItemsExamined >= v/2 {
		t.Errorf("TA examined %d of %d items; expected early termination", st.ItemsExamined, v)
	}
	bf, _ := BruteForce(f, 0, 0, 10, nil)
	assertSameResults(t, res, bf)
}

func TestTAWithZeroWeightTopics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randomModel(rng, 6, 40)
	f.queries[[2]int{1, 1}] = []float64{0.5, 0, 0.5, 0, 0, 0}
	ix := BuildIndex(f)
	ta, _ := ix.Query(f, 1, 1, 5, nil)
	bf, _ := BruteForce(f, 1, 1, 5, nil)
	assertSameResults(t, ta, bf)
}

func TestTAAllZeroQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := randomModel(rng, 3, 10)
	f.queries[[2]int{2, 2}] = []float64{0, 0, 0}
	ix := BuildIndex(f)
	if res, _ := ix.Query(f, 2, 2, 5, nil); res != nil {
		t.Errorf("all-zero query returned %v", res)
	}
}

func TestTAExclude(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := randomModel(rng, 4, 30)
	ix := BuildIndex(f)
	excluded := map[int]bool{3: true, 7: true, 11: true}
	ex := func(v int) bool { return excluded[v] }
	ta, _ := ix.Query(f, 0, 0, 6, ex)
	bf, _ := BruteForce(f, 0, 0, 6, ex)
	assertSameResults(t, ta, bf)
	for _, r := range ta {
		if excluded[r.Item] {
			t.Fatalf("excluded item %d recommended", r.Item)
		}
	}
}

func TestTAKLargerThanCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := randomModel(rng, 3, 8)
	ix := BuildIndex(f)
	ta, _ := ix.Query(f, 0, 0, 20, nil)
	bf, _ := BruteForce(f, 0, 0, 20, nil)
	if len(ta) != 8 {
		t.Fatalf("got %d results for k > V, want 8", len(ta))
	}
	assertSameResults(t, ta, bf)
}

func TestQueryPanicsOnMismatchedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := randomModel(rng, 3, 8)
	ix := BuildIndex(f)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched query length")
		}
	}()
	queryWith(ix, f, []float64{1, 0}, 3, nil)
}

// userWeights draws query weights of the shapes the floor list meets: a
// random sparse row (a trained θu), an exactly uniform one (a user with
// no history: every residual is +0), a uniform one with entries an ulp
// off (the floor carries almost everything, the residual lists next to
// nothing) and a uniform one but for a zero (the floor does not open).
func userWeights(rng *rand.Rand, k int) []float64 {
	shape := rng.Intn(4)
	if shape == 0 || (shape == 3 && k == 1) {
		return randomQuery(rng, k, true)
	}
	q := make([]float64, k)
	w := 1 / float64(k)
	for z := range q {
		q[z] = w
	}
	switch shape {
	case 2:
		for z := range q {
			switch rng.Intn(3) {
			case 0:
				q[z] = math.Nextafter(w, 0)
			case 1:
				q[z] = math.Nextafter(w, 1)
			}
		}
	case 3:
		q[rng.Intn(k)] = 0
	}
	return q
}

// Property: for random models, random, uniform, ulp-perturbed and
// one-zero queries, random k, random exclusions and random item windows,
// TA returns exactly the brute-force top-k — items, order and score
// bits — whether the scorer is a plain one, whose every topic has its own
// list, or names all its topics user topics and so walks a floor list.
func TestTAEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kTopics := rng.Intn(8) + 1
		v := rng.Intn(120) + 5
		fm := randomModel(rng, kTopics, v)
		q := userWeights(rng, kTopics)
		fm.queries[[2]int{0, 0}] = q
		var scorer model.TopicScorer = fm
		if rng.Intn(2) == 0 {
			scorer = allUserTopics(fm, q)
		}
		lo, hi := 0, v
		if rng.Intn(2) == 0 {
			lo = rng.Intn(v)
			hi = lo + rng.Intn(v-lo+1)
		}
		ix := BuildIndexRange(scorer, lo, hi)
		k := rng.Intn(v+3) + 1
		var ex Exclude
		if rng.Float64() < 0.5 {
			banned := map[int]bool{}
			for i := 0; i < rng.Intn(5); i++ {
				banned[rng.Intn(v)] = true
			}
			ex = func(item int) bool { return banned[item] }
		}
		ta, _ := ix.Query(scorer, 0, 0, k, ex)
		bf, _ := BruteForce(scorer, 0, 0, k, windowExclude(lo, hi, ex))
		if len(ta) != len(bf) {
			return false
		}
		for i := range ta {
			if ta[i].Item != bf[i].Item || math.Float64bits(ta[i].Score) != math.Float64bits(bf[i].Score) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: quantized weights force heavy ties; TA must still match
// brute force exactly.
func TestTAEquivalenceWithTiesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kTopics := rng.Intn(4) + 1
		v := rng.Intn(60) + 5
		fm := &fakeTopicModel{queries: map[[2]int][]float64{}}
		for z := 0; z < kTopics; z++ {
			row := make([]float64, v)
			var sum float64
			for i := range row {
				row[i] = float64(rng.Intn(4)) // 0..3 quantized → many ties
				sum += row[i]
			}
			if sum == 0 {
				row[0] = 1
				sum = 1
			}
			for i := range row {
				row[i] /= sum
			}
			fm.topics = append(fm.topics, row)
		}
		fm.queries[[2]int{0, 0}] = randomQuery(rng, kTopics, false)
		ix := BuildIndex(fm)
		k := rng.Intn(v) + 1
		ta, _ := ix.Query(fm, 0, 0, k, nil)
		bf, _ := BruteForce(fm, 0, 0, k, nil)
		if len(ta) != len(bf) {
			return false
		}
		for i := range ta {
			if ta[i].Item != bf[i].Item {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
