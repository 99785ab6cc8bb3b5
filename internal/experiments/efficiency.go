package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"tcam/internal/core"
	"tcam/internal/datagen"
	"tcam/internal/model/tcam"
	"tcam/internal/topk"
)

// LatencyResult is the payload of Figure 8: average online time per
// query (and items examined) for TCAM-TA, TCAM-BF and BPTF as the
// number of recommendations grows.
type LatencyResult struct {
	Dataset  string
	NumItems int
	Ks       []int
	// Per-k average latency per query.
	TA, BF, BPTF []time.Duration
	// TABatch is the per-query latency when the same workload goes
	// through Index.QueryBatch — the serving fast path: pooled searcher
	// scratch per worker, fanned across CPUs.
	TABatch []time.Duration
	// TAExamined[i] is the mean number of items TA examined at Ks[i]
	// (the scan-saving evidence behind the latency gap).
	TAExamined []float64
}

// Figure8 reproduces "Efficiency w.r.t Online Recommendations" on the
// Douban-like (70k items) and MovieLens-like worlds: a TTCAM is trained
// once per dataset, then queried via TA and brute force, against BPTF's
// brute-force-only ranking.
func (r *Runner) Figure8() ([]*LatencyResult, error) {
	var out []*LatencyResult
	for _, p := range []datagen.Profile{datagen.Douban, datagen.MovieLens} {
		res, err := r.latencyOn(p)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func (r *Runner) latencyOn(p datagen.Profile) (*LatencyResult, error) {
	data, _ := r.gridWorld(p)
	tcamRes, err := core.Train(core.TTCAM, data, r.trainOpts())
	if err != nil {
		return nil, fmt.Errorf("experiments: figure8 TTCAM on %s: %w", p, err)
	}
	bptfRes, err := core.Train(core.BPTF, data, r.trainOpts())
	if err != nil {
		return nil, fmt.Errorf("experiments: figure8 BPTF on %s: %w", p, err)
	}
	tm := tcamRes.Model.(*tcam.Model)
	ix := topk.BuildIndex(tm)

	// Deterministic query workload spread across users and intervals.
	const queriesPerK = 40
	type q struct{ u, t int }
	queries := make([]q, 0, queriesPerK)
	for i := 0; i < queriesPerK; i++ {
		queries = append(queries, q{
			u: (i * 7919) % data.NumUsers(),
			t: (i * 104729) % data.NumIntervals(),
		})
	}

	out := &LatencyResult{Dataset: p.String(), NumItems: data.NumItems()}
	batch := make([]topk.BatchQuery, len(queries))
	for _, k := range []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20} {
		out.Ks = append(out.Ks, k)
		var taTotal, bfTotal, bptfTotal time.Duration
		var examined float64
		for _, qq := range queries {
			start := time.Now()
			_, st := ix.Query(tm, qq.u, qq.t, k, nil)
			taTotal += time.Since(start)
			examined += float64(st.ItemsExamined)

			start = time.Now()
			topk.BruteForce(tm, qq.u, qq.t, k, nil)
			bfTotal += time.Since(start)

			start = time.Now()
			topk.BruteForce(bptfRes.Model, qq.u, qq.t, k, nil)
			bptfTotal += time.Since(start)
		}
		// The same workload through the batch serving path.
		for i, qq := range queries {
			batch[i] = topk.BatchQuery{U: qq.u, T: qq.t, K: k}
		}
		start := time.Now()
		ix.QueryBatch(context.Background(), tm, batch, 0)
		batchTotal := time.Since(start)

		n := time.Duration(len(queries))
		out.TA = append(out.TA, taTotal/n)
		out.BF = append(out.BF, bfTotal/n)
		out.BPTF = append(out.BPTF, bptfTotal/n)
		out.TABatch = append(out.TABatch, batchTotal/n)
		out.TAExamined = append(out.TAExamined, examined/float64(len(queries)))
	}
	return out, nil
}

// Render prints the Figure 8 series for one dataset. The TA-batch
// column appears when the result carries it (older payloads omit it).
func (l *LatencyResult) Render(w io.Writer) {
	fprintf(w, "Online recommendation latency on %s (%d items), mean per query\n", l.Dataset, l.NumItems)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	withBatch := len(l.TABatch) == len(l.Ks)
	if withBatch {
		fprintln(tw, "k\tTCAM-TA\tTCAM-TA-batch\tTCAM-BF\tBPTF\tTA items examined")
	} else {
		fprintln(tw, "k\tTCAM-TA\tTCAM-BF\tBPTF\tTA items examined")
	}
	for i, k := range l.Ks {
		if withBatch {
			fprintf(tw, "%d\t%v\t%v\t%v\t%v\t%.0f\n", k, l.TA[i], l.TABatch[i], l.BF[i], l.BPTF[i], l.TAExamined[i])
		} else {
			fprintf(tw, "%d\t%v\t%v\t%v\t%.0f\n", k, l.TA[i], l.BF[i], l.BPTF[i], l.TAExamined[i])
		}
	}
	flush(tw)
}

// MeanTA returns the mean TA latency across the sweep, for shape
// assertions.
func (l *LatencyResult) MeanTA() time.Duration { return meanDur(l.TA) }

// MeanBF returns the mean brute-force latency across the sweep.
func (l *LatencyResult) MeanBF() time.Duration { return meanDur(l.BF) }

// MeanBPTF returns the mean BPTF latency across the sweep.
func (l *LatencyResult) MeanBPTF() time.Duration { return meanDur(l.BPTF) }

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}

// TrainTimeResult is the payload of Table 4: offline training time per
// model per dataset.
type TrainTimeResult struct {
	// Times[dataset][method] is the wall-clock training duration.
	Datasets []string
	Methods  []string
	Times    map[string]map[string]time.Duration
}

// Table4 reproduces "Comparison on Model Training Time": BPRMF vs TCAM
// (TTCAM) vs BPTF on the Douban-like and MovieLens-like worlds.
func (r *Runner) Table4() (*TrainTimeResult, error) {
	methods := []core.Method{core.BPRMF, core.TTCAM, core.BPTF}
	out := &TrainTimeResult{
		Methods: []string{"BPRMF", "TCAM", "BPTF"},
		Times:   make(map[string]map[string]time.Duration),
	}
	for _, p := range []datagen.Profile{datagen.Douban, datagen.MovieLens} {
		data, _ := r.gridWorld(p)
		row := make(map[string]time.Duration)
		for i, m := range methods {
			res, err := core.Train(m, data, r.trainOpts())
			if err != nil {
				return nil, fmt.Errorf("experiments: table4 %s on %s: %w", m, p, err)
			}
			row[out.Methods[i]] = res.TrainTime
			_ = res.Model
		}
		out.Datasets = append(out.Datasets, p.String())
		out.Times[p.String()] = row
	}
	return out, nil
}

// Render prints the Table 4 layout.
func (t *TrainTimeResult) Render(w io.Writer) {
	fprintf(w, "Offline model training time\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fprintf(tw, "dataset")
	for _, m := range t.Methods {
		fprintf(tw, "\t%s", m)
	}
	fprintln(tw)
	for _, d := range t.Datasets {
		fprintf(tw, "%s", d)
		for _, m := range t.Methods {
			fprintf(tw, "\t%v", t.Times[d][m].Round(time.Millisecond))
		}
		fprintln(tw)
	}
	flush(tw)
}
