package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tcam/internal/eval"
)

// Render methods are exercised on hand-built results so the formatting
// paths stay covered without re-training models.

func TestAccuracyResultRender(t *testing.T) {
	res := &AccuracyResult{
		Dataset: "Digg",
		MaxK:    3,
		Curves: map[string]eval.Curve{
			"UT":      {{Precision: 0.1, NDCG: 0.2, F1: 0.1}, {Precision: 0.1, NDCG: 0.2, F1: 0.1}, {Precision: 0.1, NDCG: 0.2, F1: 0.1}},
			"W-TTCAM": {{Precision: 0.3, NDCG: 0.4, F1: 0.3}, {Precision: 0.3, NDCG: 0.4, F1: 0.3}, {Precision: 0.3, NDCG: 0.4, F1: 0.3}},
		},
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Precision@k", "NDCG@k", "F1@k", "W-TTCAM", "UT", "0.4000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if got := res.MeanNDCG("W-TTCAM"); got < 0.399 || got > 0.401 {
		t.Errorf("MeanNDCG = %v", got)
	}
	if res.MeanNDCG("missing") != 0 {
		t.Error("MeanNDCG of unknown method should be 0")
	}
}

func TestIntervalSweepRenderAndBest(t *testing.T) {
	res := &IntervalSweepResult{
		Dataset: "Digg",
		Lengths: []int64{1, 3, 9},
		NDCG5: map[string][]float64{
			"TT":      {0.1, 0.2, 0.15},
			"W-TTCAM": {0.2, 0.3, 0.25},
		},
	}
	if res.Best("W-TTCAM") != 3 {
		t.Errorf("Best = %d, want 3", res.Best("W-TTCAM"))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "9 days") || !strings.Contains(buf.String(), "0.3000") {
		t.Error("interval sweep render incomplete")
	}
}

func TestTopicCountRender(t *testing.T) {
	res := &TopicCountResult{
		Dataset: "Digg",
		K1s:     []int{10, 20},
		K2s:     []int{20, 40},
		NDCG5:   [][]float64{{0.1, 0.2}, {0.15, 0.25}},
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "W-TTCAM-40") {
		t.Error("figure 9 render missing K2 series label")
	}
}

func TestLatencyResultRenderAndMeans(t *testing.T) {
	res := &LatencyResult{
		Dataset:    "Douban Movie",
		NumItems:   69908,
		Ks:         []int{1, 10},
		TA:         []time.Duration{time.Millisecond, 3 * time.Millisecond},
		BF:         []time.Duration{10 * time.Millisecond, 10 * time.Millisecond},
		BPTF:       []time.Duration{40 * time.Millisecond, 40 * time.Millisecond},
		TAExamined: []float64{50, 400},
	}
	if res.MeanTA() != 2*time.Millisecond || res.MeanBF() != 10*time.Millisecond || res.MeanBPTF() != 40*time.Millisecond {
		t.Errorf("means = %v/%v/%v", res.MeanTA(), res.MeanBF(), res.MeanBPTF())
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "69908") {
		t.Error("latency render missing catalog size")
	}
	if strings.Contains(buf.String(), "TCAM-TA-batch") {
		t.Error("batch column rendered without batch measurements")
	}
	if (&LatencyResult{}).MeanTA() != 0 {
		t.Error("empty mean should be 0")
	}

	// With batch timings present (e.g. payloads written after the batch
	// serving layer landed), the extra column appears.
	res.TABatch = []time.Duration{500 * time.Microsecond, 1500 * time.Microsecond}
	buf.Reset()
	res.Render(&buf)
	if !strings.Contains(buf.String(), "TCAM-TA-batch") {
		t.Error("latency render missing batch column")
	}
}

func TestTrainTimeRender(t *testing.T) {
	res := &TrainTimeResult{
		Datasets: []string{"Douban Movie"},
		Methods:  []string{"BPRMF", "TCAM", "BPTF"},
		Times: map[string]map[string]time.Duration{
			"Douban Movie": {"BPRMF": time.Second, "TCAM": 2 * time.Second, "BPTF": 9 * time.Second},
		},
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "BPTF") || !strings.Contains(buf.String(), "9s") {
		t.Error("train time render incomplete")
	}
}

func TestLambdaCDFRender(t *testing.T) {
	res := &LambdaCDFResult{
		Dataset:     "MovieLens",
		Xs:          []float64{0, 0.5, 1},
		PersonalCDF: []float64{0, 0.2, 1},
		TemporalCDF: []float64{0, 0.8, 1},
		MeanLambda:  0.8,
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "CDF personal") {
		t.Error("lambda render incomplete")
	}
}

func TestTopicQualityRenderAndPurity(t *testing.T) {
	res := &TopicQualityResult{
		Dataset: "Delicious",
		Cluster: 7,
		Rows: []TopicQualityRow{
			{Model: "TT", TopItems: []string{"a", "b"}, BurstPurity: 0.25, GenericShare: 0.5},
			{Model: "W-TTCAM", TopItems: []string{"c", "d"}, BurstPurity: 0.875, GenericShare: 0},
		},
	}
	if res.Purity("W-TTCAM") != 0.875 || res.Purity("nope") != -1 {
		t.Error("Purity lookup wrong")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "e07") || !strings.Contains(buf.String(), "burst purity") {
		t.Error("topic quality render incomplete")
	}
}

func TestSeparationRender(t *testing.T) {
	res := &SeparationResult{
		Dataset:          "Douban Movie",
		UserGenrePurity:  0.5,
		UserCohortPurity: 0.2,
		TimeCohortPurity: 0.6,
		TimeGenrePurity:  0.15,
		ExampleUserTopic: []string{"m1"},
		ExampleTimeTopic: []string{"m2"},
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "user-oriented") || !strings.Contains(out, "0.600") {
		t.Error("separation render incomplete")
	}
}

func TestPearson(t *testing.T) {
	if got := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); got < 0.999 {
		t.Errorf("perfect correlation = %v", got)
	}
	if got := pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); got > -0.999 {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if pearson([]float64{1, 1}, []float64{2, 3}) != 0 {
		t.Error("degenerate variance should give 0")
	}
	if pearson(nil, nil) != 0 {
		t.Error("empty should give 0")
	}
}
