// Package tcam is a from-scratch Go implementation of the Temporal
// Context-Aware Mixture model of Yin, Cui, Chen, Hu & Huang, "A Temporal
// Context-Aware Model for User Behavior Modeling in Social Media
// Systems" (SIGMOD 2014), together with everything the paper's
// evaluation depends on: the UT/TT/BPRMF/BPTF baselines, the item
// weighting scheme, the Threshold-Algorithm top-k query processor, and
// synthetic workload generators standing in for the paper's four
// crawled datasets.
//
// This root package is the high-level facade: feed it an interaction
// log, get back a temporal recommender that answers "what should user u
// see right now" queries with the paper's Section 4 machinery. The
// packages under internal/ expose the individual systems (models,
// metrics, query processing) to the binaries in cmd/ and the runnable
// programs in examples/.
//
// Quick start:
//
//	log := tcam.NewDataset()
//	log.Add("alice", "swineflu", day, 1)  // ... many events
//	rec, err := tcam.Train(log, tcam.DefaultOptions())
//	recs, err := rec.Recommend("alice", day, 10)
package tcam

import (
	"context"
	"errors"
	"fmt"

	"tcam/internal/api"
	"tcam/internal/core"
	"tcam/internal/dataset"
	"tcam/internal/index"
	"tcam/internal/model"
	tcammodel "tcam/internal/model/tcam"
	"tcam/internal/server"
	"tcam/internal/topk"
)

// Dataset is an interaction log with interned string identifiers. It is
// an alias of the internal dataset type so facade users and internal
// tooling interoperate. Its Add(userID, itemID, time, score) takes an
// event only if both names are non-empty and the score is positive and
// at most 2^512 — the one rule the event log and the streaming updater
// apply too (the updater skips a logged record that breaks it) — so a
// Dataset never trains on a NaN score or one whose sums overflow, and
// whatever SaveJSONLFile writes,
// LoadDataset reads back.
type Dataset = dataset.Interactions

// TimeGrid maps absolute event times onto model intervals.
type TimeGrid = dataset.TimeGrid

// NewDataset returns an empty interaction log.
func NewDataset() *Dataset { return dataset.New() }

// LoadDataset reads a JSONL interaction log from path (the format
// cmd/tcamgen writes).
func LoadDataset(path string) (*Dataset, error) { return dataset.LoadJSONLFile(path) }

// Variant selects which TCAM formulation the facade trains.
type Variant string

// The two TCAM variants of Section 3.2.
const (
	// VariantTTCAM models the temporal context as a mixture over K2
	// shared time-oriented topics (Section 3.2.2) — the paper's best
	// performer and the right default.
	VariantTTCAM Variant = "ttcam"
	// VariantITCAM models each interval's temporal context directly as
	// an item distribution (Section 3.2.1); only sensible for modest
	// catalogs.
	VariantITCAM Variant = "itcam"
)

// Options configures Train.
type Options struct {
	// Variant picks the TCAM formulation; default VariantTTCAM.
	Variant Variant
	// IntervalLength is the time-grid granularity in the dataset's time
	// unit (Section 5.3.3 tunes this; e.g. 3 for "3 days" on Digg-like
	// logs). Default 1.
	IntervalLength int64
	// K1 and K2 are the user- and time-oriented topic counts (paper
	// defaults 60 and 40).
	K1, K2 int
	// Weighted applies the Section 3.3 item-weighting scheme before
	// training (the W- variants); on by default via DefaultOptions.
	Weighted bool
	// Background is the optional noise-absorbing background weight
	// (TTCAM only; 0 disables).
	Background float64
	// MaxIters bounds EM training. Seed drives all randomness. Workers
	// caps training parallelism (0 = all CPUs); learned parameters never
	// depend on it.
	MaxIters int
	Seed     int64
	Workers  int
	// Tol overrides the relative log-likelihood early-stop tolerance: 0
	// keeps the model default, a negative value disables the early stop
	// so every iteration runs.
	Tol float64
	// CheckpointDir enables training checkpoints in the directory,
	// snapshotting every CheckpointEvery iterations (<= 0 means every
	// iteration). Resume restores the latest snapshot before training; a
	// resumed run finishes with parameters bit-identical to an
	// uninterrupted one.
	CheckpointDir   string
	CheckpointEvery int
	Resume          bool
	// Progress, when non-nil, observes every EM iteration as it
	// completes (log-likelihood, delta, E/M-step wall-time split).
	Progress func(model.IterStat)
}

// DefaultOptions returns the paper's recommended configuration:
// weighted TTCAM with K1=60, K2=40.
func DefaultOptions() Options {
	return Options{
		Variant:        VariantTTCAM,
		IntervalLength: 1,
		K1:             60,
		K2:             40,
		Weighted:       true,
		MaxIters:       50,
		Seed:           1,
	}
}

// Recommendation is one ranked item.
type Recommendation struct {
	ItemID string
	Score  float64
}

// Recommender answers temporal top-k queries over a trained TCAM using
// the Threshold Algorithm of Section 4.2, through the same query path
// the HTTP server runs (server.Generation). It is safe for concurrent
// use.
type Recommender struct {
	gen    *server.Generation
	bundle *index.Bundle
}

func newRecommender(b *index.Bundle) *Recommender {
	return &Recommender{gen: server.NewGeneration(b), bundle: b}
}

// Train fits a TCAM on the interaction log and returns a ready-to-query
// recommender.
func Train(log *Dataset, opts Options) (*Recommender, error) {
	if log == nil || log.NumEvents() == 0 {
		return nil, errors.New("tcam: empty interaction log")
	}
	if opts.Variant == "" {
		opts.Variant = VariantTTCAM
	}
	// The method core.Train knows the (Variant, Weighted) pair by; it
	// applies the Section 3.3 weighting itself.
	methods, ok := map[Variant][2]core.Method{
		VariantTTCAM: {core.TTCAM, core.WTTCAM},
		VariantITCAM: {core.ITCAM, core.WITCAM},
	}[opts.Variant]
	if !ok {
		return nil, fmt.Errorf("tcam: unknown variant %q", opts.Variant)
	}
	method := methods[0]
	if opts.Weighted {
		method = methods[1]
	}
	if opts.IntervalLength <= 0 {
		opts.IntervalLength = 1
	}
	data, grid, err := log.Grid(opts.IntervalLength)
	if err != nil {
		return nil, fmt.Errorf("tcam: %w", err)
	}
	res, err := core.Train(method, data, core.Options{
		K1:              opts.K1,
		K2:              opts.K2,
		MaxIters:        opts.MaxIters,
		Background:      opts.Background,
		Seed:            opts.Seed,
		Workers:         opts.Workers,
		Tol:             opts.Tol,
		CheckpointDir:   opts.CheckpointDir,
		CheckpointEvery: opts.CheckpointEvery,
		Resume:          opts.Resume,
		Hook:            opts.Progress,
	})
	if err != nil {
		return nil, fmt.Errorf("tcam: %w", err)
	}
	return newRecommender(index.New(res.Model.(*tcammodel.Model), grid, log.Users.Names(), log.Items.Names())), nil
}

// Recommend returns the top-k items for userID at the given absolute
// time, ranked by the Section 4.1 score and computed with the Threshold
// Algorithm. k defaults to 10 when zero and may not exceed 1000.
// Unknown users are an error; times outside the training span clamp to
// the nearest interval.
func (r *Recommender) Recommend(userID string, when int64, k int) ([]Recommendation, error) {
	return r.RecommendExcluding(userID, when, k, nil)
}

// RecommendExcluding is Recommend with an item-ID exclusion set (e.g.
// items the user already consumed); unknown IDs are ignored.
func (r *Recommender) RecommendExcluding(userID string, when int64, k int, excludeIDs []string) ([]Recommendation, error) {
	sc := r.gen.Acquire()
	defer sc.Release()
	a, err := sc.Answer(&api.Query{User: userID, Time: when, K: k, Exclude: excludeIDs})
	if err != nil {
		return nil, fmt.Errorf("tcam: %w", err)
	}
	return r.render(a.Results), nil
}

// BatchQuery is one entry of RecommendBatch: a temporal top-k query
// with an optional item-ID exclusion set. K defaults to 10 when zero.
type BatchQuery struct {
	UserID     string
	When       int64
	K          int
	ExcludeIDs []string
}

// RecommendBatch answers many temporal top-k queries in one call,
// fanning them across CPUs with pooled Threshold-Algorithm scratch per
// worker — the serving path for bulk workloads (eval sweeps, feed
// precomputation). Results align with queries by position; any invalid
// query (unknown user, k out of range) fails the whole batch.
func (r *Recommender) RecommendBatch(queries []BatchQuery) ([][]Recommendation, error) {
	batch := make([]api.Query, len(queries))
	for i, q := range queries {
		batch[i] = api.Query{User: q.UserID, Time: q.When, K: q.K, Exclude: q.ExcludeIDs}
	}
	out := make([][]Recommendation, len(queries))
	for i, a := range r.gen.AnswerBatch(context.Background(), batch) {
		if a.Err != nil {
			return nil, fmt.Errorf("tcam: %w", a.Err)
		}
		out[i] = r.render(a.Results)
	}
	return out, nil
}

// render names the ranked items.
func (r *Recommender) render(results []topk.Result) []Recommendation {
	out := make([]Recommendation, len(results))
	for i, res := range results {
		out[i] = Recommendation{ItemID: r.bundle.Items[res.Item], Score: res.Score}
	}
	return out
}

// Lambda returns the learned personal-interest influence probability λu
// of a user — the quantity Figures 10–11 analyze.
func (r *Recommender) Lambda(userID string) (float64, error) {
	u, err := r.gen.User(userID)
	if err != nil {
		return 0, fmt.Errorf("tcam: %w", err)
	}
	return r.bundle.Model.Lambda(u), nil
}

// Grid returns the time grid the recommender was trained on.
func (r *Recommender) Grid() TimeGrid { return r.bundle.Grid }

// NumTopics returns the expanded topic-space size (K1 + K2 for TTCAM).
func (r *Recommender) NumTopics() int { return r.bundle.Scorer().NumTopics() }

// TopicTopItems returns the n highest-probability item IDs of expanded
// topic z — how Tables 5–7 inspect what a topic means — or nil when z
// is outside [0, NumTopics()).
func (r *Recommender) TopicTopItems(z, n int) []Recommendation {
	if top := r.gen.TopicItems(z, n); len(top) > 0 {
		return r.render(top)
	}
	return nil
}

// Save persists the recommender (model + grid + vocabularies) to path.
func (r *Recommender) Save(path string) error { return r.bundle.Save(path) }

// LoadRecommender restores a recommender saved with Save, rebuilding
// the TA index.
func LoadRecommender(path string) (*Recommender, error) {
	b, err := index.Load(path)
	if err != nil {
		return nil, err
	}
	return newRecommender(b), nil
}
