package topk

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzBytes hands out the fuzzer's input a byte at a time, zeros once it
// runs dry, so every input decodes to some model and query.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return x
}

// weight decodes one non-negative weight. The top two bits pick a
// family: 0 and dyadic levels, whose products and sums are exact and so
// tie exactly; subnormals; reciprocals, which round and so near-tie; and
// magnitudes spread over a hundred binary orders.
func (b *fuzzBytes) weight() float64 {
	x := b.next()
	low := float64(x & 63)
	switch x >> 6 {
	case 0:
		return low / 16
	case 1:
		return low * 0x1p-1074
	case 2:
		return 1 / (low + 1)
	default:
		return math.Ldexp(1+float64(x&7)/8, -16*int(x>>3&7))
	}
}

// row decodes n weights: either one weight repeated — a uniform row — or
// n weights of their own.
func (b *fuzzBytes) row(n int) []float64 {
	r := make([]float64, n)
	uniform := b.next()&1 == 1
	for i := range r {
		if i == 0 || !uniform {
			r[i] = b.weight()
		} else {
			r[i] = r[0]
		}
	}
	return r
}

// decodeFuzzModel reads a scorer of at most 8 topics over at most 64
// items — its context range, its topic rows or one multiset of topic
// weights each item permutes, its intervals' ω rows, one user's row and
// γ — then an item window, the query's interval, k and an exclude set.
func decodeFuzzModel(data []byte) (c *contextModel, lo, hi, at, k int, exclude Exclude) {
	b := fuzzBytes(data)
	kTopics, v := 1+int(b.next()%8), 1+int(b.next()%64)
	shape := b.next()
	cLo := int(shape&15) % (kTopics + 1)
	cHi := cLo + int(shape>>4)%(kTopics-cLo+1)
	c = &contextModel{fakeTopicModel: &fakeTopicModel{}, lo: cLo, hi: cHi}
	if b.next()&1 == 0 {
		for z := 0; z < kTopics; z++ {
			c.topics = append(c.topics, b.row(v))
		}
	} else {
		// Every item holds one multiset of weights over the topics, in an
		// order of its own: its scores tie in exact arithmetic and round
		// apart by the grouping — Score's, a collapse's, the floor's.
		levels := b.row(kTopics)
		for z := 0; z < kTopics; z++ {
			c.topics = append(c.topics, make([]float64, v))
		}
		perm := make([]int, kTopics)
		for i := 0; i < v; i++ {
			for z := range perm {
				perm[z] = z
			}
			for z := kTopics - 1; z > 0; z-- {
				j := int(b.next()) % (z + 1)
				perm[z], perm[j] = perm[j], perm[z]
			}
			for z, from := range perm {
				c.topics[z][i] = levels[from]
			}
		}
	}
	for t := 1 + int(b.next()%3); t > 0; t-- {
		c.omega = append(c.omega, b.row(cHi-cLo))
	}
	c.user = [][]float64{b.row(kTopics)}
	c.gamma = []float64{b.weight()}
	lo, hi = 0, v
	if w := b.next(); w&1 == 1 {
		lo = int(w>>1) % (v + 1)
		hi = lo + int(b.next())%(v-lo+1)
	}
	at = int(b.next()) % len(c.omega)
	k = 1 + int(b.next())%(v+2)
	banned := make([]bool, v)
	for i := range banned {
		if i%8 == 0 {
			shape = b.next()
		}
		banned[i] = shape>>(i%8)&1 == 1
	}
	exclude = func(item int) bool { return banned[item] }
	return c, lo, hi, at, k, exclude
}

// FuzzTAMatchesBruteForce: whatever model, window and query the bytes
// spell — exact ties, subnormals, uniform rows, zero weights, any
// context range, with or without user topics and so a floor list — TA
// answers exactly as BruteForce does: items, order and score bits.
func FuzzTAMatchesBruteForce(f *testing.F) {
	// The uniform user: six topics — four user topics, one context topic,
	// a background — over 32 items, each topic row random.
	rng := rand.New(rand.NewSource(1))
	seed := []byte{5, 31, 0x14, 0}
	for z := 0; z < 6; z++ {
		seed = append(seed, 0)
		for i := 0; i < 32; i++ {
			seed = append(seed, byte(rng.Intn(256)))
		}
	}
	seed = append(seed,
		1, 0, 0x90, 0, 0x10, // two intervals, ω = 1/17 and 1
		1, 0x84, // the user: every topic 1/5
		0x88,    // γ = 1/9
		0, 1, 9, // the whole catalog, interval 1, k = 10
		0x20, 0, 0, 0) // item 5 excluded
	f.Add(seed)
	f.Add([]byte{7, 63, 0x35, 0, 1, 0xc9, 0, 0xff})
	// Permuted multisets under a flat user over eight user topics.
	f.Add([]byte{7, 47, 0x08, 1, 0, 0xb1, 0x93, 0x4f, 0x2a, 0xd7, 0x85, 0x16, 0x6c})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, lo, hi, at, k, exclude := decodeFuzzModel(data)
		got, _ := BuildIndexRange(c, lo, hi).Query(c, 0, at, k, exclude)
		want := c.wantTopK(0, at, k, windowExclude(lo, hi, exclude))
		if len(got) != len(want) {
			t.Fatalf("window [%d,%d) interval %d k=%d: TA answered %v, BruteForce %v", lo, hi, at, k, got, want)
		}
		for i := range got {
			if got[i].Item != want[i].Item || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("window [%d,%d) interval %d k=%d rank %d: TA answered %v, BruteForce %v", lo, hi, at, k, i, got, want)
			}
		}
	})
}
