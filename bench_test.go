package tcam

// bench_test.go regenerates every paper table and figure as a testing.B
// benchmark (scaled-down worlds so `go test -bench=.` terminates in
// minutes), plus the ablation benches DESIGN.md §6 calls out and
// microbenches of the hot paths. Key result values are surfaced through
// b.ReportMetric, so `-bench` output doubles as a smoke reproduction:
// e.g. BenchmarkFigure6DiggAccuracy reports W-TTCAM and UT NDCG so the
// ordering is visible next to the timing.

import (
	"math/rand"
	"testing"

	"tcam/internal/core"
	"tcam/internal/cuboid"
	"tcam/internal/datagen"
	"tcam/internal/dataset"
	"tcam/internal/eval"
	"tcam/internal/experiments"
	"tcam/internal/model/tcam"
	"tcam/internal/topk"
	"tcam/internal/weighting"
)

// benchConfig is the scaled-down experiment configuration every paper
// bench runs at.
func benchConfig() experiments.Config {
	cfg := experiments.Small()
	cfg.MaxQueries = 300
	cfg.EMIters = 10
	return cfg
}

func BenchmarkTable2DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		res := r.Table2()
		b.ReportMetric(float64(res.Rows[0].Ratings), "digg-ratings")
	}
}

func BenchmarkFigure2TopicSignatures(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TimePeakedness, "time-peakedness")
		b.ReportMetric(res.UserPeakedness, "user-peakedness")
	}
}

func BenchmarkFigure5BurstyVsPopular(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BurstyConcentration, "bursty-conc")
		b.ReportMetric(res.PopularConcentration, "popular-conc")
	}
}

func BenchmarkFigure6DiggAccuracy(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanNDCG("W-TTCAM"), "wttcam-ndcg")
		b.ReportMetric(res.MeanNDCG("UT"), "ut-ndcg")
	}
}

func BenchmarkFigure7MovieLensAccuracy(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanNDCG("TTCAM"), "ttcam-ndcg")
		b.ReportMetric(res.MeanNDCG("TT"), "tt-ndcg")
	}
}

func BenchmarkTable3IntervalLength(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Best("W-TTCAM")), "best-interval-days")
	}
}

func BenchmarkFigure9TopicCounts(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.NDCG5[len(res.NDCG5)-1][len(res.K1s)-1], "max-grid-ndcg")
	}
}

func BenchmarkFigure8OnlineLatency(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		douban := res[0]
		b.ReportMetric(float64(douban.MeanTA().Microseconds()), "ta-us")
		b.ReportMetric(float64(douban.MeanBF().Microseconds()), "bf-us")
		b.ReportMetric(float64(douban.MeanBPTF().Microseconds()), "bptf-us")
	}
}

func BenchmarkTable4TrainingTime(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Table4()
		if err != nil {
			b.Fatal(err)
		}
		row := res.Times[res.Datasets[0]]
		b.ReportMetric(row["TCAM"].Seconds(), "tcam-train-s")
		b.ReportMetric(row["BPTF"].Seconds(), "bptf-train-s")
	}
}

func BenchmarkFigure10and11LambdaCDF(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml, err := r.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		digg, err := r.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ml.MeanLambda, "ml-mean-lambda")
		b.ReportMetric(digg.MeanLambda, "digg-mean-lambda")
	}
}

func BenchmarkTables5and6TopicQuality(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t5, err := r.Table5()
		if err != nil {
			b.Fatal(err)
		}
		t6, err := r.Table6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t5.Purity("W-TTCAM"), "delicious-wttcam-purity")
		b.ReportMetric(t6.Purity("W-TTCAM"), "douban-wttcam-purity")
	}
}

func BenchmarkTable7TopicSeparation(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Table7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TimeCohortPurity, "time-cohort-purity")
		b.ReportMetric(res.TimeGenrePurity, "time-genre-purity")
	}
}

// --- ablation benches (DESIGN.md §6) ---

// benchWorld returns a mid-sized Digg-like training cuboid shared by the
// ablation and micro benches.
func benchWorld(b *testing.B) *cuboid.Cuboid {
	b.Helper()
	cfg := datagen.DefaultConfig(datagen.Digg)
	cfg.NumUsers, cfg.NumItems, cfg.NumDays = 800, 800, 60
	cfg.Genres, cfg.Events = 16, 40
	w := datagen.MustGenerate(cfg)
	data, _, err := w.Log.Grid(3)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkAblationParallelEM measures one full TTCAM training at 1
// worker vs all workers; compare ns/op across the two sub-benches.
func BenchmarkAblationParallelEM(b *testing.B) {
	data := benchWorld(b)
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := tcam.DefaultConfig()
				cfg.K1, cfg.K2, cfg.MaxIters, cfg.Workers = 20, 12, 10, workers
				if _, _, err := tcam.Train(data, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTAvsBF quantifies the Threshold Algorithm's saving on
// the same trained model and query stream.
func BenchmarkAblationTAvsBF(b *testing.B) {
	data := benchWorld(b)
	cfg := tcam.DefaultConfig()
	cfg.K1, cfg.K2, cfg.MaxIters = 20, 12, 10
	m, _, err := tcam.Train(data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ix := topk.BuildIndex(m)
	b.Run("TA", func(b *testing.B) {
		var examined float64
		for i := 0; i < b.N; i++ {
			_, st := ix.Query(m, i%data.NumUsers(), i%data.NumIntervals(), 10, nil)
			examined += float64(st.ItemsExamined)
		}
		b.ReportMetric(examined/float64(b.N), "items-examined")
	})
	b.Run("BruteForce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topk.BruteForce(m, i%data.NumUsers(), i%data.NumIntervals(), 10, nil)
		}
	})
}

// BenchmarkAblationWeighting isolates the two factors of Equation (19):
// it trains W-TTCAM under iuf-only, burst-only and combined weighting
// and reports the temporal accuracy of each.
func BenchmarkAblationWeighting(b *testing.B) {
	data := benchWorld(b)
	split := dataset.SplitPerInterval(rand.New(rand.NewSource(5)), data, 0.2)
	queries := eval.SampleQueries(eval.BuildQueries(split), 300)
	for _, mode := range []weighting.Mode{weighting.IUFOnly, weighting.BurstOnly, weighting.Combined} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				weighted := weighting.New(split.Train, mode).Apply(split.Train)
				cfg := tcam.DefaultConfig()
				cfg.K1, cfg.K2, cfg.MaxIters = 20, 12, 10
				m, _, err := tcam.Train(weighted, cfg)
				if err != nil {
					b.Fatal(err)
				}
				curve := eval.Evaluate(eval.BruteForceRanker(m), queries, 5, 0)
				b.ReportMetric(curve.At(5).NDCG, "ndcg@5")
			}
		})
	}
}

// BenchmarkAblationBackgroundTopic measures the future-work background
// extension against plain TTCAM.
func BenchmarkAblationBackgroundTopic(b *testing.B) {
	data := benchWorld(b)
	for _, bg := range []float64{0, 0.1} {
		name := "background=off"
		if bg > 0 {
			name = "background=0.1"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := tcam.DefaultConfig()
				cfg.K1, cfg.K2, cfg.MaxIters, cfg.Background = 20, 12, 10, bg
				if _, _, err := tcam.Train(data, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro benches of the hot paths ---

func BenchmarkEMIterationTTCAM(b *testing.B) {
	data := benchWorld(b)
	cfg := tcam.DefaultConfig()
	cfg.K1, cfg.K2 = 20, 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.MaxIters = 1
		if _, _, err := tcam.Train(data, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(data.NNZ() * 16))
}

func BenchmarkTAQueryTop10(b *testing.B) {
	data := benchWorld(b)
	cfg := tcam.DefaultConfig()
	cfg.K1, cfg.K2, cfg.MaxIters = 20, 12, 10
	m, _, err := tcam.Train(data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ix := topk.BuildIndex(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(m, i%data.NumUsers(), i%data.NumIntervals(), 10, nil)
	}
}

func BenchmarkBruteForceQueryTop10(b *testing.B) {
	data := benchWorld(b)
	cfg := tcam.DefaultConfig()
	cfg.K1, cfg.K2, cfg.MaxIters = 20, 12, 10
	m, _, err := tcam.Train(data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topk.BruteForce(m, i%data.NumUsers(), i%data.NumIntervals(), 10, nil)
	}
}

func BenchmarkWeightCuboid(b *testing.B) {
	data := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weighting.WeightCuboid(data)
	}
}

func BenchmarkTrainAllMethodsSmall(b *testing.B) {
	data := benchWorld(b)
	opts := core.Options{K1: 12, K2: 8, MaxIters: 5, Factors: 8, Epochs: 5, Burnin: 3, Samples: 2, Seed: 1}
	for _, m := range core.AllMethods() {
		b.Run(string(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(m, data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
