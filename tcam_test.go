package tcam

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"path/filepath"
	"testing"

	"tcam/internal/cuboid"
)

// newsLog builds a small news-like log: ten trend-followers chase one
// hot story per day; ten loyalists keep reading their own pet feeds.
func newsLog(tb testing.TB) *Dataset {
	tb.Helper()
	log := NewDataset()
	add := func(u, v string, day int64) {
		tb.Helper()
		if err := log.Add(u, v, day, 1); err != nil {
			tb.Fatal(err)
		}
	}
	for day := int64(0); day < 10; day++ {
		hot := "story-hot-" + string(rune('a'+day))
		for u := 0; u < 10; u++ {
			add(userName("follower", u), hot, day)
			if u%2 == 0 {
				add(userName("follower", u), "story-hot-extra-"+string(rune('a'+day)), day)
			}
		}
		for u := 0; u < 10; u++ {
			add(userName("loyal", u), "feed-"+string(rune('a'+u%5)), day)
			add(userName("loyal", u), "feed-"+string(rune('a'+(u+1)%5)), day)
		}
	}
	return log
}

func userName(kind string, i int) string { return kind + "-" + string(rune('0'+i)) }

func fastOptions() Options {
	opts := DefaultOptions()
	opts.K1, opts.K2 = 8, 6
	opts.MaxIters = 25
	opts.Workers = 2
	return opts
}

func TestTrainAndRecommend(t *testing.T) {
	rec, err := Train(newsLog(t), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rec.Recommend(userName("follower", 3), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d recommendations", len(recs))
	}
	// A trend-follower on day 4 should see day-4's hot content in the
	// top-3 (K2 < number of days, so adjacent days can share a topic).
	found := false
	for _, r := range recs {
		if r.ItemID == "story-hot-e" || r.ItemID == "story-hot-extra-e" {
			found = true
		}
	}
	if !found {
		t.Errorf("day-4 hot content not in top-3: %+v", recs)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Error("recommendations not sorted by score")
		}
	}
}

func TestLoyalUserGetsTheirFeed(t *testing.T) {
	rec, err := Train(newsLog(t), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rec.Recommend(userName("loyal", 2), 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.ItemID == "feed-c" || r.ItemID == "feed-d" {
			found = true
		}
	}
	if !found {
		t.Errorf("loyal user's feeds absent from top-3: %+v", recs)
	}
}

func TestUnknownUser(t *testing.T) {
	rec, err := Train(newsLog(t), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Recommend("nobody", 0, 3); err == nil {
		t.Error("Recommend accepted an unknown user")
	}
	if _, err := rec.Lambda("nobody"); err == nil {
		t.Error("Lambda accepted an unknown user")
	}
}

func TestRecommendExcluding(t *testing.T) {
	rec, err := Train(newsLog(t), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	u := userName("follower", 0)
	base, err := rec.Recommend(u, 4, 1)
	if err != nil || len(base) == 0 {
		t.Fatal(err)
	}
	filtered, err := rec.RecommendExcluding(u, 4, 3, []string{base[0].ItemID, "not-an-item"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range filtered {
		if r.ItemID == base[0].ItemID {
			t.Error("excluded item recommended")
		}
	}
}

func TestLambdaSeparatesUserKinds(t *testing.T) {
	rec, err := Train(newsLog(t), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	var follower, loyal float64
	for i := 0; i < 10; i++ {
		lf, err := rec.Lambda(userName("follower", i))
		if err != nil {
			t.Fatal(err)
		}
		ll, err := rec.Lambda(userName("loyal", i))
		if err != nil {
			t.Fatal(err)
		}
		follower += lf
		loyal += ll
	}
	if loyal/10 <= follower/10 {
		t.Errorf("mean λ loyal %v ≤ follower %v", loyal/10, follower/10)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	rec, err := Train(newsLog(t), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rec.tcam")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRecommender(path)
	if err != nil {
		t.Fatal(err)
	}
	u := userName("follower", 1)
	a, err := rec.Recommend(u, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Recommend(u, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ItemID != b[i].ItemID || math.Abs(a[i].Score-b[i].Score) > 0 {
			t.Fatalf("rank %d differs after roundtrip: %+v vs %+v", i, a[i], b[i])
		}
	}
	if loaded.Grid() != rec.Grid() {
		t.Error("grid changed in roundtrip")
	}
}

func TestITCAMVariant(t *testing.T) {
	opts := fastOptions()
	opts.Variant = VariantITCAM
	rec, err := Train(newsLog(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rec.Recommend(userName("follower", 5), 2, 3)
	if err != nil || len(recs) != 3 {
		t.Fatalf("ITCAM variant failed: %v, %d recs", err, len(recs))
	}
}

// TestTopicTopItems ranks a topic's items under both variants, and
// answers nil, not a panic, for a topic outside [0, NumTopics()).
func TestTopicTopItems(t *testing.T) {
	itcam := fastOptions()
	itcam.Variant = VariantITCAM
	for _, tc := range []struct {
		name   string
		opts   Options
		topics int
	}{
		{"TTCAM", fastOptions(), 8 + 6},
		{"ITCAM", itcam, 8 + 10}, // K1 + one context per interval: ten days
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := Train(newsLog(t), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if rec.NumTopics() != tc.topics {
				t.Fatalf("NumTopics = %d, want %d", rec.NumTopics(), tc.topics)
			}
			for _, z := range []int{0, rec.NumTopics() - 1} {
				top := rec.TopicTopItems(z, 4)
				if len(top) != 4 {
					t.Fatalf("topic %d: got %d top items", z, len(top))
				}
				for i := 1; i < len(top); i++ {
					if top[i].Score > top[i-1].Score {
						t.Errorf("topic %d: items not sorted", z)
					}
				}
			}
			for _, z := range []int{-1, rec.NumTopics()} {
				if top := rec.TopicTopItems(z, 4); top != nil {
					t.Errorf("TopicTopItems(%d, 4) = %v, want nil", z, top)
				}
			}
		})
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, DefaultOptions()); err == nil {
		t.Error("Train accepted a nil dataset")
	}
	if _, err := Train(NewDataset(), DefaultOptions()); err == nil {
		t.Error("Train accepted an empty dataset")
	}
	opts := fastOptions()
	opts.Variant = "bogus"
	if _, err := Train(newsLog(t), opts); err == nil {
		t.Error("Train accepted an unknown variant")
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	opts := DefaultOptions()
	if opts.K1 != 60 || opts.K2 != 40 {
		t.Errorf("default topic counts K1=%d K2=%d, paper uses 60/40", opts.K1, opts.K2)
	}
	if !opts.Weighted || opts.Variant != VariantTTCAM {
		t.Error("default should be the paper's best performer, W-TTCAM")
	}
}

func TestRecommendBatchMatchesSequential(t *testing.T) {
	rec, err := Train(newsLog(t), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := []BatchQuery{
		{UserID: userName("follower", 3), When: 4, K: 3},
		{UserID: userName("loyal", 2), When: 7, K: 5},
		{UserID: userName("follower", 0), When: 4}, // K=0 defaults to 10
		{UserID: userName("loyal", 0), When: 2, K: 3, ExcludeIDs: []string{"feed-a", "feed-b"}},
	}
	batch, err := rec.RecommendBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("got %d batch results for %d queries", len(batch), len(queries))
	}
	for i, q := range queries {
		k := q.K
		if k <= 0 {
			k = 10
		}
		want, err := rec.RecommendExcluding(q.UserID, q.When, k, q.ExcludeIDs)
		if err != nil {
			t.Fatal(err)
		}
		got := batch[i]
		if len(got) != len(want) {
			t.Fatalf("query %d: batch returned %d recs, sequential %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("query %d rank %d: batch %+v != sequential %+v", i, j, got[j], want[j])
			}
		}
	}
}

func TestRecommendBatchUnknownUser(t *testing.T) {
	rec, err := Train(newsLog(t), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, err = rec.RecommendBatch([]BatchQuery{
		{UserID: userName("follower", 1), When: 4, K: 3},
		{UserID: "nobody", When: 4, K: 3},
	})
	if err == nil {
		t.Error("RecommendBatch accepted an unknown user")
	}
}

// TestFacadeTrainBytes pins Train's option → config translation, which
// core.Train owns: the SHA-256 of Bundle.Write for the five facade
// configurations, recorded when the facade still built its own model
// config. Between them the rows take every branch of the Tol and Seed
// overrides.
func TestFacadeTrainBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Options)
		want string
	}{
		{"ttcam/weighted", func(o *Options) {},
			"91442fe17ec3cb3a6c249b5ded6ca7d372efeff40c5704fc784bc10e0c5d4293"},
		{"ttcam/raw", func(o *Options) { o.Weighted, o.Seed = false, 7 },
			"7253c4e5bc06bbc1d902ba5ccb3b53b1384e61325ce9d3700304fa7712752937"},
		{"itcam/weighted", func(o *Options) { o.Variant, o.Tol = VariantITCAM, -1 },
			"7f237675d253281e59a038ef91d4cb192072807a0e0f7d11fedc7484cf6ee92b"},
		{"itcam/raw", func(o *Options) { o.Variant, o.Weighted, o.Tol = VariantITCAM, false, 1e-3 },
			"f73f523b787873f201da988a79d58810ea705e705223de75e870380e50a8ad9e"},
		{"ttcam+background", func(o *Options) { o.Background, o.Seed = 0.1, 0 },
			"5abfdeed8d78788ce0fb1c0418e801f3d636b413eeaa03dd31f5f931136264aa"},
	} {
		opts := fastOptions()
		tc.mod(&opts)
		rec, err := Train(newsLog(t), opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		if err := rec.bundle.Write(h); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: Bundle.Write sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestLargestScoreTrainsFinite: a dataset holding the largest score
// cuboid.CheckScore admits trains, weighted and unweighted, into a model
// that serves only finite scores — no sum over its cells overflows.
func TestLargestScoreTrainsFinite(t *testing.T) {
	for _, weighted := range []bool{true, false} {
		log := newsLog(t)
		if err := log.Add(userName("loyal", 2), "feed-a", 3, cuboid.MaxScore); err != nil {
			t.Fatal(err)
		}
		opts := fastOptions()
		opts.Weighted = weighted
		rec, err := Train(log, opts)
		if err != nil {
			t.Fatalf("weighted=%v: %v", weighted, err)
		}
		for _, u := range []string{userName("loyal", 2), userName("follower", 3)} {
			recs, err := rec.Recommend(u, 3, 10)
			if err != nil || len(recs) == 0 {
				t.Fatalf("weighted=%v: Recommend(%s) = %d recommendations, %v", weighted, u, len(recs), err)
			}
			for _, r := range recs {
				if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
					t.Errorf("weighted=%v: %s gets %s scored %v", weighted, u, r.ItemID, r.Score)
				}
			}
		}
	}
}
