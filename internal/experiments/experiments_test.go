package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tcam/internal/core"
	"tcam/internal/cuboid"
	"tcam/internal/datagen"
	"tcam/internal/eval"
)

// tiny returns a configuration small enough for unit tests; shape
// assertions below tolerate its noise.
func tiny() Config {
	cfg := Small()
	cfg.MaxQueries = 250
	cfg.EMIters = 12
	return cfg
}

// mid returns a configuration at the full world scale but with reduced
// training budgets — the accuracy-shape assertions need the real
// temporal structure, which the tiny worlds crowd out.
func mid() Config {
	cfg := Default()
	cfg.MaxQueries = 800
	cfg.EMIters = 20
	cfg.GibbsBurnin = 8
	cfg.GibbsKeep = 4
	return cfg
}

func TestTable2(t *testing.T) {
	r := NewRunner(tiny())
	res := r.Table2()
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	byName := map[string]DatasetStatsRow{}
	for _, row := range res.Rows {
		if row.Users == 0 || row.Items == 0 || row.Ratings == 0 {
			t.Errorf("empty dataset row %+v", row)
		}
		byName[row.Name] = row
	}
	// Douban keeps the paper's 70k-item catalog regardless of scale.
	if byName["Douban Movie"].Items != 69908 {
		t.Errorf("Douban items = %d, want 69908", byName["Douban Movie"].Items)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Digg") {
		t.Error("render missing dataset names")
	}
}

func TestFigure2TopicSignatures(t *testing.T) {
	r := NewRunner(tiny())
	res, err := r.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if res.TimePeakedness <= res.UserPeakedness {
		t.Errorf("time topic peakedness %.2f not above user topic %.2f",
			res.TimePeakedness, res.UserPeakedness)
	}
	if len(res.TimeTopicItems) != 8 || len(res.UserTopicItems) != 8 {
		t.Error("top-8 listings missing")
	}
}

func TestFigure5BurstyVsPopular(t *testing.T) {
	r := NewRunner(tiny())
	res, err := r.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if res.BurstyConcentration <= res.PopularConcentration {
		t.Errorf("bursty concentration %.3f not above popular %.3f",
			res.BurstyConcentration, res.PopularConcentration)
	}
	if res.BurstyConcentration < 0.5 {
		t.Errorf("bursty tags place only %.3f of mass near their event", res.BurstyConcentration)
	}
}

func TestFigure6DiggShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale accuracy experiment")
	}
	r := NewRunner(mid())
	res, err := r.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 8 {
		t.Fatalf("got %d methods, want 8", len(res.Curves))
	}
	// Headline claims on the time-sensitive dataset.
	wttcam := res.MeanNDCG("W-TTCAM")
	ttcam := res.MeanNDCG("TTCAM")
	ut := res.MeanNDCG("UT")
	ttBase := res.MeanNDCG("TT")
	bprmf := res.MeanNDCG("BPRMF")
	if wttcam <= ut || wttcam <= bprmf {
		t.Errorf("W-TTCAM (%.4f) must beat UT (%.4f) and BPRMF (%.4f) on Digg", wttcam, ut, bprmf)
	}
	if ttcam <= ut {
		t.Errorf("TTCAM (%.4f) must beat UT (%.4f) on Digg", ttcam, ut)
	}
	if ttBase <= ut {
		t.Errorf("TT (%.4f) must beat UT (%.4f) on time-sensitive data", ttBase, ut)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "NDCG@k") {
		t.Error("render missing metric blocks")
	}
}

func TestFigure7MovieLensShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale accuracy experiment")
	}
	r := NewRunner(mid())
	res, err := r.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	ut := res.MeanNDCG("UT")
	ttBase := res.MeanNDCG("TT")
	wttcam := res.MeanNDCG("W-TTCAM")
	if ut <= ttBase {
		t.Errorf("UT (%.4f) must beat TT (%.4f) on interest-driven data", ut, ttBase)
	}
	if wttcam <= ttBase {
		t.Errorf("W-TTCAM (%.4f) must beat TT (%.4f) on MovieLens", wttcam, ttBase)
	}
}

func TestTable3IntervalSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale accuracy experiment")
	}
	r := NewRunner(mid())
	res, err := r.table3Lengths([]int64{1, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"TT", "ITCAM", "TTCAM", "W-TTCAM", "BPTF", "W-ITCAM"} {
		if len(res.NDCG5[m]) != 3 {
			t.Fatalf("method %s has %d entries", m, len(res.NDCG5[m]))
		}
	}
	// The interesting shape: accuracy degrades at too-coarse
	// granularity (9 days merges distinct events on a bursty world).
	if res.NDCG5["W-TTCAM"][2] >= res.NDCG5["W-TTCAM"][1] {
		t.Errorf("W-TTCAM should lose accuracy from 3d (%.4f) to 9d (%.4f) intervals",
			res.NDCG5["W-TTCAM"][1], res.NDCG5["W-TTCAM"][2])
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "3 days") {
		t.Error("render missing interval rows")
	}
}

func TestFigure9TopicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale accuracy experiment")
	}
	r := NewRunner(mid())
	res, err := r.figure9Grid([]int{4, 16, 48}, []int{12, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NDCG5) != 2 || len(res.NDCG5[0]) != 3 {
		t.Fatalf("grid shape %dx%d", len(res.NDCG5), len(res.NDCG5[0]))
	}
	// Starved K1 should underperform an adequate K1 for the larger K2.
	if res.NDCG5[1][0] >= res.NDCG5[1][2] {
		t.Errorf("K1=4 (%.4f) should trail K1=32 (%.4f)", res.NDCG5[1][0], res.NDCG5[1][2])
	}
}

func TestFigure10And11LambdaShapes(t *testing.T) {
	r := NewRunner(tiny())
	ml, err := r.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	digg, err := r.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if ml.MeanLambda <= digg.MeanLambda {
		t.Errorf("mean λ MovieLens %.3f must exceed Digg %.3f", ml.MeanLambda, digg.MeanLambda)
	}
	// Paper: on Digg the temporal influence of most users exceeds 0.5.
	mid := len(digg.Xs) / 2
	if digg.Xs[mid] != 0.5 {
		t.Fatalf("CDF grid midpoint is %v, want 0.5", digg.Xs[mid])
	}
	if share := 1 - digg.PersonalCDF[mid]; share > 0.5 {
		t.Errorf("on Digg %.0f%% of users are interest-dominated; expected a minority", share*100)
	}
	if ml.TruthCorrelation <= 0 {
		t.Errorf("learned λ uncorrelated with ground truth on MovieLens: %.3f", ml.TruthCorrelation)
	}
}

func TestTable5TopicQuality(t *testing.T) {
	r := NewRunner(tiny())
	res, err := r.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want TT/TTCAM/W-TTCAM", len(res.Rows))
	}
	if res.Purity("W-TTCAM") < res.Purity("TT") {
		t.Errorf("item weighting must not reduce burst purity: W-TTCAM %.3f vs TT %.3f",
			res.Purity("W-TTCAM"), res.Purity("TT"))
	}
}

// TestHeaviestEventCluster: Figure 5 and Tables 5–6 match the event
// cluster whose items the most users rated, ties to the lower id, and
// all three fail on a world without event clusters instead of scoring
// against cluster −1, every stable item.
func TestHeaviestEventCluster(t *testing.T) {
	st := &cuboid.Stats{ItemUsers: []int{9, 2, 3, 4, 1}}
	w := &datagen.World{Truth: &datagen.GroundTruth{EventCluster: []int{-1, 2, 1, 1, 2}}}
	if x, err := heaviestEventCluster(datagen.Delicious, w, st); err != nil || x != 1 {
		t.Errorf("cluster %d, err %v; want 1 (masses 7 and 3, not the stable item's 9)", x, err)
	}
	w.Truth.EventCluster = []int{-1, 2, 1, 1, 3}
	st.ItemUsers = []int{9, 7, 3, 4, 1}
	if x, err := heaviestEventCluster(datagen.Delicious, w, st); err != nil || x != 1 {
		t.Errorf("cluster %d, err %v; want the tie between 1 and 2 to go to 1", x, err)
	}
	w.Truth.EventCluster = []int{-1, -1, -1, -1, -1}
	if _, err := heaviestEventCluster(datagen.Douban, w, st); err == nil || !strings.Contains(err.Error(), "Douban") {
		t.Errorf("a world without event clusters gave err %v", err)
	}
}

func TestTable7Separation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on the full Douban-like world")
	}
	r := NewRunner(mid())
	res, err := r.Table7()
	if err != nil {
		t.Fatal(err)
	}
	// Table 7's claim, as measurable contrasts: release-cohort structure
	// lives in the time topics, genre structure (relatively) in the user
	// topics. Same-label cross-family comparisons keep the chance
	// baselines equal.
	if res.TimeCohortPurity <= res.TimeGenrePurity {
		t.Errorf("time topics should be cohort-pure, not genre-pure: cohort %.3f vs genre %.3f",
			res.TimeCohortPurity, res.TimeGenrePurity)
	}
	if res.TimeCohortPurity <= res.UserCohortPurity {
		t.Errorf("time topics should concentrate release cohorts: time %.3f vs user %.3f",
			res.TimeCohortPurity, res.UserCohortPurity)
	}
	if res.UserGenrePurity <= res.TimeGenrePurity {
		t.Errorf("user topics should carry more genre structure than time topics: user %.3f vs time %.3f",
			res.UserGenrePurity, res.TimeGenrePurity)
	}
}

func TestFigure8AndTable4Efficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("efficiency experiment trains on the 70k-item Douban world")
	}
	r := NewRunner(tiny())
	lat, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 2 {
		t.Fatalf("got %d datasets", len(lat))
	}
	douban := lat[0]
	if douban.NumItems != 69908 {
		t.Fatalf("douban catalog %d", douban.NumItems)
	}
	// TA must examine far fewer items than the catalog on average.
	for i, ex := range douban.TAExamined {
		if ex > float64(douban.NumItems)/2 {
			t.Errorf("k=%d: TA examined %.0f of %d items", douban.Ks[i], ex, douban.NumItems)
		}
	}
	// Relative latency shape: TA must be several times under brute
	// force on the large catalog (the paper's headline; the TA/BF gap
	// is ~30-60×, so a 4× threshold stays robust under CI noise).
	if douban.MeanTA()*4 >= douban.MeanBF() {
		t.Errorf("TA (%v) not clearly faster than brute force (%v) on Douban", douban.MeanTA(), douban.MeanBF())
	}
	// BPTF's per-item scoring work is S·D vs TCAM's K; at this config
	// they are comparable, so only assert BPTF is not dramatically
	// faster (which would indicate a broken measurement).
	if douban.MeanBPTF()*2 < douban.MeanBF() {
		t.Errorf("BPTF (%v) implausibly fast vs TCAM-BF (%v)", douban.MeanBPTF(), douban.MeanBF())
	}

	tt4, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tt4.Datasets {
		row := tt4.Times[d]
		// Training-cost order: BPRMF fastest; BPTF at least comparable
		// to TCAM (strictly slower at realistic Gibbs budgets — see
		// EXPERIMENTS.md Table 4, produced with -burnin 20 -samples 10).
		// At this test's tiny config the absolute times are milliseconds,
		// so only flag order-of-magnitude inversions.
		if row["BPRMF"] >= 3*row["TCAM"] {
			t.Errorf("%s: BPRMF training (%v) should be under TCAM (%v)", d, row["BPRMF"], row["TCAM"])
		}
		if row["BPTF"]*2 <= row["TCAM"] {
			t.Errorf("%s: BPTF training (%v) implausibly under TCAM (%v)", d, row["BPTF"], row["TCAM"])
		}
	}
}

func TestFindAndAll(t *testing.T) {
	if len(All()) != 15 {
		t.Fatalf("got %d experiments", len(All()))
	}
	if _, ok := Find("table3"); !ok {
		t.Error("Find missed table3")
	}
	if _, ok := Find("bogus"); ok {
		t.Error("Find found bogus")
	}
}

func TestConvergence(t *testing.T) {
	r := NewRunner(tiny())
	res, err := r.Convergence()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Methods) != 2 {
		t.Fatalf("got %d methods, want ITCAM and TTCAM", len(res.Methods))
	}
	for _, mt := range res.Methods {
		if len(mt.Iters) == 0 || len(mt.Iters) != mt.Stats.Iterations() {
			t.Fatalf("%s: hook saw %d iterations, stats report %d", mt.Method, len(mt.Iters), mt.Stats.Iterations())
		}
		for i, it := range mt.Iters {
			if it.Iter != i+1 {
				t.Errorf("%s: record %d has iter %d", mt.Method, i, it.Iter)
			}
			if it.LogLikelihood != mt.Stats.LogLikelihood[i] {
				t.Errorf("%s: iter %d hook LL diverges from stats trace", mt.Method, it.Iter)
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "ITCAM") || !strings.Contains(out, "log-likelihood") {
		t.Error("render missing trajectory table")
	}
}

func TestWorldCaching(t *testing.T) {
	r := NewRunner(tiny())
	a := r.World(datagen.Digg)
	b := r.World(datagen.Digg)
	if a != b {
		t.Error("worlds not cached")
	}
}

// TestNumbersIgnoreWorkers: an offline number is a function of (data,
// seed), not of the parallelism it was computed under. Every method of
// the comparison, trained and evaluated at 1, 2 and 5 workers, scores a
// probe grid and averages every field of its metric curve to the same
// bits.
func TestNumbersIgnoreWorkers(t *testing.T) {
	type numbers struct {
		scores []float64
		curve  eval.Curve
	}
	run := func(workers int) map[core.Method]numbers {
		cfg := tiny()
		cfg.Scale, cfg.EMIters, cfg.GibbsBurnin, cfg.GibbsKeep, cfg.Workers = 0.1, 5, 2, 2, workers
		r := NewRunner(cfg)
		data, _ := r.gridWorld(datagen.Digg)
		split, queries := r.splitQueries(data)
		out := make(map[core.Method]numbers)
		for _, m := range core.AllMethods() {
			res, err := core.Train(m, split.Train, r.trainOpts())
			if err != nil {
				t.Fatal(err)
			}
			var n numbers
			for u := 0; u < data.NumUsers(); u += 7 {
				for tt := 0; tt < data.NumIntervals(); tt += 3 {
					for v := 0; v < data.NumItems(); v += 11 {
						n.scores = append(n.scores, res.Model.Score(u, tt, v))
					}
				}
			}
			n.curve = eval.Evaluate(eval.BruteForceRanker(res.Model), queries, 10, workers)
			out[m] = n
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 5} {
		got := run(workers)
		for _, m := range core.AllMethods() {
			for i, s := range got[m].scores {
				if math.Float64bits(s) != math.Float64bits(want[m].scores[i]) {
					t.Errorf("%s: a score trained at %d workers differs from 1 worker's", m, workers)
					break
				}
			}
			for k, rm := range got[m].curve {
				if rm != want[m].curve[k] {
					t.Errorf("%s: metrics at k=%d evaluated at %d workers = %+v, at 1 worker %+v", m, k+1, workers, rm, want[m].curve[k])
					break
				}
			}
		}
	}
}
