package tcam

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/train"
)

// variant is one row of the table every test in this package runs
// over: the two context kinds, plus the topic mixture with the
// background path on.
type variant struct {
	name       string
	topics     bool // K2 > 0
	background float64
}

var variants = []variant{
	{"ITCAM", false, 0},
	{"TTCAM", true, 0},
	{"TTCAM+background", true, 0.15},
}

// config returns the default config at the given topic counts for the
// variant (k2 is dropped for the item context).
func (v variant) config(k1, k2 int) Config {
	cfg := DefaultConfig()
	cfg.K1, cfg.K2, cfg.Background = k1, k2, v.background
	if !v.topics {
		cfg.K2 = 0
	}
	return cfg
}

// forVariants runs f as one subtest per variant.
func forVariants(t *testing.T, f func(t *testing.T, v variant)) {
	t.Helper()
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) { f(t, v) })
	}
}

// trendWorld builds a cuboid with two user populations over two item
// groups: "interest" users always rate their own pet items regardless of
// interval; "trend" users rate whichever item is hot in the current
// interval. This is the minimal world where the λu split is observable.
func trendWorld(tb testing.TB, seed int64) *cuboid.Cuboid {
	tb.Helper()
	const (
		nUsers     = 40 // 0..19 interest-driven, 20..39 trend-driven
		nIntervals = 8
		nItems     = 40 // 0..19 stable pets, 20..39 one hot item per interval ×2
	)
	rng := rand.New(rand.NewSource(seed))
	b := cuboid.NewBuilder(nUsers, nIntervals, nItems)
	for u := 0; u < 20; u++ {
		pet := u % 10
		for t := 0; t < nIntervals; t++ {
			b.MustAdd(u, t, pet, 1)
			b.MustAdd(u, t, (pet+1)%10, 1)
			if rng.Float64() < 0.3 {
				b.MustAdd(u, t, 10+rng.Intn(10), 1)
			}
		}
	}
	for u := 20; u < 40; u++ {
		for t := 0; t < nIntervals; t++ {
			hot := 20 + t*2
			b.MustAdd(u, t, hot, 1)
			b.MustAdd(u, t, hot+1, 1)
			if rng.Float64() < 0.3 {
				b.MustAdd(u, t, rng.Intn(20), 1)
			}
		}
	}
	return b.Build()
}

func trainTrend(tb testing.TB, v variant) (*Model, model.TrainStats) {
	tb.Helper()
	cfg := v.config(12, 8)
	cfg.MaxIters = 60
	cfg.Workers = 2
	m, st, err := Train(trendWorld(tb, 7), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m, st
}

func TestTrainValidation(t *testing.T) {
	good := trendWorld(t, 1)
	tests := []struct {
		name string
		data *cuboid.Cuboid
		mod  func(*Config)
	}{
		{"zero K1", good, func(c *Config) { c.K1 = 0 }},
		{"negative K2", good, func(c *Config) { c.K2 = -1 }},
		{"zero iters", good, func(c *Config) { c.MaxIters = 0 }},
		{"background 1", good, func(c *Config) { c.Background = 1 }},
		{"negative background", good, func(c *Config) { c.Background = -0.1 }},
		{"NaN background", good, func(c *Config) { c.Background = math.NaN() }},
		{"background without time topics", good, func(c *Config) { c.K2, c.Background = 0, 0.1 }},
		{"empty cuboid", cuboid.NewBuilder(2, 2, 2).Build(), func(*Config) {}},
	}
	for _, base := range []Config{DefaultConfig(), DefaultITCAMConfig()} {
		for _, tt := range tests {
			t.Run(tt.name, func(t *testing.T) {
				cfg := base
				tt.mod(&cfg)
				if _, _, err := Train(tt.data, cfg); err == nil {
					t.Error("Train accepted invalid input")
				}
			})
		}
	}
}

func TestDenseGuard(t *testing.T) {
	b := cuboid.NewBuilder(1, 1<<14, 1<<13)
	b.MustAdd(0, 0, 0, 1)
	if _, _, err := Train(b.Build(), DefaultITCAMConfig()); err == nil {
		t.Error("Train accepted a catalog requiring an oversized dense temporal table")
	}
}

// TestReadRejectsHostileBackground: the background weight arrives from
// a file, and anything outside [0,1) would serve negative or NaN scores.
func TestReadRejectsHostileBackground(t *testing.T) {
	encode := func(mod func(*Model)) *bytes.Buffer {
		cfg := variants[2].config(3, 2)
		cfg.MaxIters = 2
		m, _, err := Train(trendWorld(t, 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		mod(m)
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if _, err := Read(encode(func(*Model) {})); err != nil {
		t.Fatalf("Read rejected an untouched model: %v", err)
	}
	for _, w := range []float64{math.NaN(), -0.1, 1, 5} {
		if _, err := Read(encode(func(m *Model) { m.backgroundW = w })); err == nil {
			t.Errorf("Read accepted background weight %v", w)
		}
	}
	if _, err := Read(encode(func(m *Model) { m.backgroundW = 0 })); err == nil {
		t.Error("Read accepted a background distribution with zero weight")
	}
}

// TestReadRejectsHostileWires: Read refuses, with an error and never a
// panic, a header whose dimension products wrap around to the decoded
// lengths, and parameters outside the non-negative decomposition TA
// bounds scores by — a NaN or negative φ entry, a λu above 1, a row
// that sums to a half. The untouched wire still reads.
func TestReadRejectsHostileWires(t *testing.T) {
	cfg := variants[1].config(3, 2)
	cfg.MaxIters = 2
	m, _, err := Train(trendWorld(t, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var trained wire
	if err := gob.NewDecoder(&buf).Decode(&trained); err != nil {
		t.Fatal(err)
	}
	read := func(w wire) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
				t.Errorf("Read panicked: %v", p)
			}
		}()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
			t.Fatal(err)
		}
		_, err = Read(&buf)
		return err
	}
	if err := read(trained); err != nil {
		t.Fatalf("Read rejected an untouched model: %v", err)
	}
	edited := func(edit func(w *wire)) wire {
		w := trained
		w.Theta = append([]float64(nil), trained.Theta...)
		w.Phi = append([]float64(nil), trained.Phi...)
		w.ThetaTx = append([]float64(nil), trained.ThetaTx...)
		w.Lambda = append([]float64(nil), trained.Lambda...)
		edit(&w)
		return w
	}
	for name, w := range map[string]wire{
		"wrapping dimensions": {NumUsers: 4, K1: 1 << 62, NumItems: 4, NumIntervals: 1,
			ThetaT: []float64{0.25, 0.25, 0.25, 0.25}, Lambda: []float64{0.5, 0.5, 0.5, 0.5}},
		"NaN φ entry":       edited(func(w *wire) { w.Phi[3] = math.NaN() }),
		"negative φ entry":  edited(func(w *wire) { w.Phi[3], w.Phi[4] = -w.Phi[4], w.Phi[3]+2*w.Phi[4] }),
		"λu = 7":            edited(func(w *wire) { w.Lambda[1] = 7 }),
		"θ row sums to 1/2": edited(func(w *wire) { w.Theta[0], w.Theta[1], w.Theta[2] = 0.25, 0.125, 0.125 }),
		"θ' row sums to 1/2": edited(func(w *wire) {
			for x := 0; x < w.K2; x++ {
				w.ThetaTx[w.K2+x] /= 2
			}
		}),
	} {
		if err := read(w); err == nil {
			t.Errorf("%s: Read accepted the model", name)
		}
	}
}

func TestLogLikelihoodMonotone(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		_, st := trainTrend(t, v)
		if st.Iterations() < 3 {
			t.Fatalf("only %d iterations recorded", st.Iterations())
		}
		for i := 1; i < st.Iterations(); i++ {
			prev, cur := st.LogLikelihood[i-1], st.LogLikelihood[i]
			if cur < prev-math.Abs(prev)*1e-8-1e-8 {
				t.Fatalf("log-likelihood decreased at iter %d: %v -> %v", i, prev, cur)
			}
		}
	})
}

func TestDistributionsNormalized(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		m, _ := trainTrend(t, v)
		checkSimplex := func(name string, p []float64) {
			t.Helper()
			var sum float64
			for _, x := range p {
				if x < 0 {
					t.Fatalf("%s has negative entry %v", name, x)
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("%s sums to %v", name, sum)
			}
		}
		for u := 0; u < m.NumUsers(); u++ {
			checkSimplex("theta_u", m.UserInterest(u))
			if l := m.Lambda(u); l < train.LambdaClamp-1e-12 || l > 1-train.LambdaClamp+1e-12 {
				t.Fatalf("lambda[%d] = %v outside clamp", u, l)
			}
		}
		for z := 0; z < m.K1(); z++ {
			checkSimplex("phi_z", m.UserTopic(z))
		}
		for tt := 0; tt < m.NumIntervals(); tt++ {
			checkSimplex("theta'_t", m.TemporalContext(tt))
		}
		for x := 0; x < m.K2(); x++ {
			checkSimplex("phi'_x", m.TimeTopic(x))
		}
	})
}

func TestLambdaSeparatesPopulations(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		m, _ := trainTrend(t, v)
		var interest, trend float64
		for u := 0; u < 20; u++ {
			interest += m.Lambda(u)
		}
		for u := 20; u < 40; u++ {
			trend += m.Lambda(u)
		}
		if interest/20 <= trend/20 {
			t.Errorf("mean λ interest-driven %v ≤ trend-driven %v; mixture not separating", interest/20, trend/20)
		}
	})
}

func TestScoreAllMatchesScore(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		m, _ := trainTrend(t, v)
		scores := make([]float64, m.NumItems())
		for _, q := range [][2]int{{0, 0}, {25, 3}, {39, 7}} {
			u, tt := q[0], q[1]
			m.ScoreAll(u, tt, scores)
			for v := 0; v < m.NumItems(); v++ {
				if want := m.Score(u, tt, v); math.Abs(scores[v]-want) > 1e-12 {
					t.Fatalf("ScoreAll(%d,%d)[%d] = %v, Score = %v", u, tt, v, scores[v], want)
				}
			}
		}
	})
}

func TestTopicDecompositionMatchesScore(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		m, _ := trainTrend(t, v)
		wantTopics := m.K1() + m.NumIntervals()
		if v.topics {
			wantTopics = m.K1() + m.K2()
		}
		if v.background > 0 {
			wantTopics++
		}
		if m.NumTopics() != wantTopics {
			t.Fatalf("NumTopics = %d, want %d", m.NumTopics(), wantTopics)
		}
		for _, q := range [][2]int{{3, 1}, {30, 5}} {
			u, tt := q[0], q[1]
			w := make([]float64, m.NumTopics())
			m.QueryWeightsInto(u, tt, w)
			var wsum float64
			for _, x := range w {
				wsum += x
			}
			if math.Abs(wsum-1) > 1e-9 {
				t.Fatalf("query weights sum to %v", wsum)
			}
			for v := 0; v < m.NumItems(); v += 7 {
				var s float64
				for z, wz := range w {
					if wz == 0 {
						continue
					}
					s += wz * m.ItemTopics()[v*m.NumTopics()+z]
				}
				if want := m.Score(u, tt, v); math.Abs(s-want) > 1e-10 {
					t.Fatalf("topic decomposition score %v != Score %v at (u=%d,t=%d,v=%d)", s, want, u, tt, v)
				}
			}
		}
	})
}

func TestScoreAllPanicsOnBadBuffer(t *testing.T) {
	m, _ := trainTrend(t, variants[0])
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong buffer size")
		}
	}()
	m.ScoreAll(0, 0, make([]float64, 3))
}

func TestTrendUsersRankHotItems(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		m, _ := trainTrend(t, v)
		// For a trend-driven user, the hot pair of interval 4 must outrank
		// a random stable item in interval 4 but not in interval 0.
		hot4 := 20 + 4*2
		if m.Score(25, 4, hot4) <= m.Score(25, 4, 15) {
			t.Error("hot item of interval 4 not promoted for trend user at t=4")
		}
		if m.Score(25, 0, hot4) >= m.Score(25, 0, 20) {
			t.Error("interval-4 hot item outranks interval-0 hot item at t=0")
		}
		// For an interest-driven user, the pet item must outrank the hot
		// one even during the burst interval.
		if m.Score(0, 4, 0) <= m.Score(0, 4, hot4) {
			t.Error("pet item of interest user not promoted over hot item")
		}
	})
}

func TestDeterministicTraining(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		cfg := v.config(6, 4)
		cfg.MaxIters = 10
		data := trendWorld(t, 3)
		m1, st1, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m2, st2, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st1.Final() != st2.Final() {
			t.Errorf("same seed, different final LL: %v vs %v", st1.Final(), st2.Final())
		}
		assertSameModel(t, "same seed", m2, m1)
		cfg.Workers = 4
		m4, _, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, "workers=4", m4, m1)
	})
}

// TestFitNewIntervalTopics: against frozen time topics, a fresh
// interval's θ' must concentrate on the topic that owns its items.
func TestFitNewIntervalTopics(t *testing.T) {
	m, _ := trainTrend(t, variants[1])
	// Find which time topic owns interval 4's hot pair, then feed a
	// fresh pseudo-interval containing exactly that pair: the fitted θ'
	// must concentrate on the same topic as the trained interval 4.
	hot4 := 20 + 4*2
	fitted := m.FitNewInterval([]int{hot4, hot4 + 1}, []float64{5, 5}, m.NumItems(), 30)
	var sum float64
	for _, x := range fitted {
		if x < 0 {
			t.Fatalf("fitted theta has negative entry %v", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fitted theta sums to %v", sum)
	}
	if bestFit, bestTrained := argmax(fitted), argmax(m.TemporalContext(4)); bestFit != bestTrained {
		t.Errorf("fitted interval picked topic %d, trained interval 4 uses %d", bestFit, bestTrained)
	}
	// Degenerate inputs return uniform.
	uniform := m.FitNewInterval(nil, nil, m.NumItems(), 10)
	for _, x := range uniform {
		if math.Abs(x-1/float64(m.K2())) > 1e-12 {
			t.Fatalf("empty fit not uniform: %v", uniform)
		}
	}
	// Out-of-range and non-positive entries — including items a grown
	// catalog has but the frozen topics do not — are ignored, not fatal.
	got := m.FitNewInterval([]int{-1, hot4, hot4 + 1, m.NumItems() + 1, 10_000}, []float64{1, 0, 5, 3, 2}, m.NumItems()+5, 5)
	want := m.FitNewInterval([]int{hot4 + 1}, []float64{5}, m.NumItems(), 5)
	if !bitsEqual(got, want) {
		t.Error("out-of-range ratings leaked into the fitted context")
	}
}

func argmax(xs []float64) int {
	best, arg := math.Inf(-1), -1
	for i, x := range xs {
		if x > best {
			best, arg = x, i
		}
	}
	return arg
}

func TestBackgroundAbsorbsPopularItems(t *testing.T) {
	// With a strong background, uniform-popular filler items should lean
	// on the background rather than consuming topic mass, so time topics
	// should concentrate more sharply (lower entropy) than without.
	entropyOf := func(p []float64) float64 {
		var h float64
		for _, x := range p {
			if x > 0 {
				h -= x * math.Log(x)
			}
		}
		return h
	}
	mPlain, _ := trainTrend(t, variants[1])
	mBg, _ := trainTrend(t, variant{"TTCAM+background", true, 0.2})
	var hPlain, hBg float64
	for x := 0; x < mPlain.K2(); x++ {
		hPlain += entropyOf(mPlain.TimeTopic(x))
		hBg += entropyOf(mBg.TimeTopic(x))
	}
	if hBg > hPlain*1.1 {
		t.Errorf("background topics not sharper: entropy %v vs plain %v", hBg, hPlain)
	}
}
