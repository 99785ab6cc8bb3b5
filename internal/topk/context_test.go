package topk

import (
	"math/rand"
	"testing"

	"tcam/internal/model"
)

// contextModel is a fakeTopicModel whose topics [lo, hi) a query weighs
// by its interval alone — TTCAM's shape, topics past hi standing in for
// the background. Topics below lo are user topics, which the index
// floors. With an empty range nothing is collapsed: ITCAM's shape for
// lo > 0, and for lo = 0 fakeTopicModel's.
type contextModel struct {
	*fakeTopicModel
	lo, hi int
	omega  [][]float64 // T×(hi−lo): ω_t
	user   [][]float64 // N×K: a user's weights outside the range
	gamma  []float64   // N: γ_u
}

func (c *contextModel) NumIntervals() int              { return len(c.omega) }
func (c *contextModel) ContextTopics() (lo, hi int)    { return c.lo, c.hi }
func (c *contextModel) ContextWeights(t int) []float64 { return c.omega[t] }

func (c *contextModel) QueryWeightsInto(u, t int, dst []float64) float64 {
	copy(dst, c.user[u])
	if c.hi > c.lo {
		for x, w := range c.omega[t] {
			dst[c.lo+x] = c.gamma[u] * w
		}
	}
	return c.gamma[u]
}

func (c *contextModel) QueryWeights(u, t int) []float64 {
	q := make([]float64, c.NumTopics())
	c.QueryWeightsInto(u, t, q)
	return q
}

// Score adds the expanded topics one by one in ascending order — the
// grouping BruteForce sees and Index.Score reproduces, not the
// collapsed one the context lists are sorted by.
func (c *contextModel) Score(u, t, v int) float64 {
	var s float64
	for z, w := range c.QueryWeights(u, t) {
		s += w * c.topics[z][v]
	}
	return s
}

// ScoreAll is this model's own: the embedded fake's would call the
// fake's Score.
func (c *contextModel) ScoreAll(u, t int, scores []float64) {
	for v := range scores {
		scores[v] = c.Score(u, t, v)
	}
}

var _ model.TopicScorer = (*contextModel)(nil)

// allUserTopics is f as a contextModel that names every topic a
// user topic — the index then holds a floor list over all of them — and
// whose user 0 weighs them by q at its one interval.
func allUserTopics(f *fakeTopicModel, q []float64) *contextModel {
	k := len(f.topics)
	return &contextModel{fakeTopicModel: f, lo: k, hi: k, omega: [][]float64{nil}, user: [][]float64{q}, gamma: []float64{0}}
}

// wantTopK is BruteForce, except for the query that gives no list a
// weight, which TA answers with nothing (TestTAAllZeroQuery).
func (c *contextModel) wantTopK(u, t, k int, exclude Exclude) []Result {
	walked := c.hi > c.lo && c.gamma[u] > 0
	for _, w := range c.QueryWeights(u, t) {
		walked = walked || w > 0
	}
	if !walked {
		return nil
	}
	want, _ := BruteForce(c, u, t, k, exclude)
	return want
}

// tiedRow draws v weights from a handful of levels, zero among them, so
// lists are full of ties and the item tie-break decides the order. The
// levels are dyadic: products and sums of a few of them are exact, so
// scores tie exactly too.
func tiedRow(rng *rand.Rand, v int) []float64 {
	row := make([]float64, v)
	for i := range row {
		row[i] = float64(rng.Intn(5)) / 8
	}
	return row
}

// tiedContextModel is a scorer of tiedRows throughout: k1 user topics
// (the floor list's), k2 context topics, tail topics after them — with
// no context topics, ITCAM's shape — T intervals, v items and three
// users.
func tiedContextModel(rng *rand.Rand, k1, k2, tail, intervals, v int) *contextModel {
	c := &contextModel{fakeTopicModel: &fakeTopicModel{}, lo: k1, hi: k1 + k2}
	for z := 0; z < k1+k2+tail; z++ {
		c.topics = append(c.topics, tiedRow(rng, v))
	}
	for i := 0; i < intervals; i++ {
		c.omega = append(c.omega, tiedRow(rng, k2))
	}
	for u := 0; u < 3; u++ {
		c.user = append(c.user, tiedRow(rng, k1+k2+tail))
		c.gamma = append(c.gamma, float64(rng.Intn(3))/2)
	}
	return c
}

// contextRow draws one ω_t of the kinds a θ′ row comes in: the flat row
// of a barely fitted stream interval, the one-hot row of a sharply
// trained one, something sparse in between, and nothing at all.
func contextRow(rng *rand.Rand, k2 int) []float64 {
	row := make([]float64, k2)
	switch rng.Intn(4) {
	case 0:
		for x := range row {
			row[x] = 1 / float64(k2)
		}
	case 1:
		row[rng.Intn(k2)] = 1
	case 2:
		copy(row, randomQuery(rng, k2, true))
	}
	return row
}

// Property: a scorer with collapsed contexts answers exactly as
// BruteForce — items, order and score bits — over flat, one-hot, sparse
// and empty context rows, random, uniform, ulp-perturbed and one-zero
// user rows, with and without a background topic behind the range, on
// the whole catalog and on item windows, with stream-born items no topic
// has weight for yet, for any k, through one reused searcher that
// confirms every candidate it pops (allConfirmed). BruteForce adds the
// context topics one by one and the user topics one by one; the index
// bounds them by their collapsed sum and by the floor and the residuals,
// so this is the soundness test of the bound's margin.
func TestTAContextEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k1, k2, background := 1+rng.Intn(5), 1+rng.Intn(6), rng.Intn(2)
		v, born := 5+rng.Intn(100), rng.Intn(4)
		k := k1 + k2 + background
		c := &contextModel{fakeTopicModel: randomModel(rng, k, v), lo: k1, hi: k1 + k2}
		for _, row := range c.topics {
			clear(row[v-born:]) // stream-born: in the catalog, in no topic
		}
		for i := 0; i <= rng.Intn(4); i++ {
			c.omega = append(c.omega, contextRow(rng, k2))
		}
		for u := 0; u < 4; u++ {
			row := randomQuery(rng, k, true)
			copy(row, userWeights(rng, k1))
			c.user = append(c.user, row)
			c.gamma = append(c.gamma, rng.Float64()*float64(rng.Intn(3)))
		}
		lo, hi := 0, v
		if seed%2 == 0 {
			lo = rng.Intn(v)
			hi = lo + rng.Intn(v-lo+1)
		}
		ix := BuildIndexFrom(nil, c, lo, hi)
		s := ix.AcquireSearcher()
		for round := 0; round < 10; round++ {
			u, at, topN := rng.Intn(4), rng.Intn(len(c.omega)), 1+rng.Intn(v+3)
			var exclude Exclude
			if round%3 == 0 {
				banned := rng.Intn(v)
				exclude = func(item int) bool { return item == banned }
			}
			got, st := s.Query(c, u, at, topN, exclude)
			if err := allConfirmed(s, st, exclude); err != nil {
				t.Fatalf("seed %d window [%d,%d) query (%d,%d) k=%d: %v", seed, lo, hi, u, at, topN, err)
			}
			want := c.wantTopK(u, at, topN, windowExclude(lo, hi, exclude))
			if len(got) != len(want) {
				t.Fatalf("seed %d window [%d,%d) query (%d,%d) k=%d: %d results, want %d", seed, lo, hi, u, at, topN, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d window [%d,%d) query (%d,%d) k=%d rank %d: got %+v, want %+v", seed, lo, hi, u, at, topN, i, got[i], want[i])
				}
			}
		}
		s.Release()
	}
}

// Property: dyadic weights make scores tie exactly, at the k-th place
// as anywhere else; the margin that loosens the bound must leave the
// ascending-item tie-break what BruteForce's is, and every popped
// candidate is confirmed (allConfirmed).
func TestTAContextTiesProperty(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := tiedContextModel(rng, 1+rng.Intn(3), 1+rng.Intn(3), rng.Intn(2), 1+rng.Intn(3), 5+rng.Intn(60))
		s := BuildIndex(c).NewSearcher()
		for round := 0; round < 10; round++ {
			u, at, k := rng.Intn(len(c.user)), rng.Intn(len(c.omega)), 1+rng.Intn(c.NumItems())
			got, st := s.Query(c, u, at, k, nil)
			if err := allConfirmed(s, st, nil); err != nil {
				t.Fatalf("seed %d query (%d,%d) k=%d: %v", seed, u, at, k, err)
			}
			want := c.wantTopK(u, at, k, nil)
			if len(got) != len(want) {
				t.Fatalf("seed %d query (%d,%d) k=%d: %d results, want %d", seed, u, at, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d query (%d,%d) k=%d rank %d: got %+v, want %+v\n got %v\nwant %v", seed, u, at, k, i, got[i], want[i], got, want)
				}
			}
		}
	}
}

// Property: items whose context topics hold one multiset of weights in
// different orders tie in exact arithmetic under a flat ω, and round an
// ulp apart — differently in Score, which scales each topic by γ before
// adding, than in the collapsed sum the context list is sorted by. The
// two orders then disagree about near-tied items, and only the bound's
// margin keeps TA from stopping in front of one that Score ranks in.
func TestTAContextBoundMargin(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k2, v := 3+rng.Intn(5), 40+rng.Intn(80)
		c := &contextModel{fakeTopicModel: &fakeTopicModel{}, lo: 1, hi: 1 + k2}
		c.topics = append(c.topics, make([]float64, v))
		for x := 0; x < k2; x++ {
			c.topics = append(c.topics, make([]float64, v))
		}
		levels := make([]float64, k2)
		for x := range levels {
			levels[x] = rng.Float64()
		}
		for item := 0; item < v; item++ {
			for x, from := range rng.Perm(k2) {
				c.topics[1+x][item] = levels[from]
			}
		}
		flat := make([]float64, k2)
		for x := range flat {
			flat[x] = 1 / float64(k2)
		}
		c.omega = [][]float64{flat}
		c.user = [][]float64{make([]float64, 1+k2)}
		c.gamma = []float64{rng.Float64()}
		ix := BuildIndex(c)
		for k := 1; k < v; k += 1 + rng.Intn(5) {
			got, _ := ix.Query(c, 0, 0, k, nil)
			want, _ := BruteForce(c, 0, 0, k, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d k=%d rank %d: got %+v, want %+v", seed, k, i, got[i], want[i])
				}
			}
		}
	}
}

// Property: items whose user topics hold one multiset of weights in
// different orders tie in exact arithmetic under a flat θu, and round an
// ulp apart — differently in Score, which scales each topic by its weight
// before adding, than in m·S_v, whose sum the floor list is sorted by.
// The two orders then disagree about near-tied items, and only the
// bound's margin keeps TA from stopping in front of one that Score ranks
// in.
func TestTAFloorBoundMargin(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k1, v := 3+rng.Intn(5), 40+rng.Intn(80)
		f := &fakeTopicModel{}
		for z := 0; z < k1; z++ {
			f.topics = append(f.topics, make([]float64, v))
		}
		levels := make([]float64, k1)
		for z := range levels {
			levels[z] = rng.Float64()
		}
		for item := 0; item < v; item++ {
			for z, from := range rng.Perm(k1) {
				f.topics[z][item] = levels[from]
			}
		}
		flat := make([]float64, k1)
		w := rng.Float64()
		for z := range flat {
			flat[z] = w
		}
		c := allUserTopics(f, flat)
		ix := BuildIndex(c)
		for k := 1; k < v; k += 1 + rng.Intn(5) {
			got, _ := ix.Query(c, 0, 0, k, nil)
			want, _ := BruteForce(c, 0, 0, k, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d k=%d rank %d: got %+v, want %+v", seed, k, i, got[i], want[i])
				}
			}
		}
	}
}
