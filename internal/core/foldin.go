package core

// Fold-in facade: the registry-level entry point the streaming loop
// uses to extend an already-trained model to new users without a
// retrain, mirroring Train's dispatch. Only the TCAM family supports
// fold-in — its per-user parameters are separable from the frozen
// globals; the baselines (UT/TT/BPRMF/BPTF/timeSVD++) would need a
// full refit and are rejected.

import (
	"fmt"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/model/tcam"
	"tcam/internal/weighting"
)

// FoldIn extends a model trained by Train(method, ...) to
// data.NumUsers() users by partial EM against frozen globals. data's
// interval/item dimensions must match the trained model; weighted
// methods apply the Section 3.3 item-weighting to data first, exactly
// as Train does. Options reuses the training knobs: MaxIters bounds
// the partial-EM rounds (0 keeps the fold-in default), Shards/Workers
// thread through unchanged. The input model is not mutated.
func FoldIn(method Method, rec model.Recommender, data *cuboid.Cuboid, opts Options) (model.Recommender, error) {
	if !method.mixture() {
		return nil, fmt.Errorf("core: method %s does not support fold-in", method)
	}
	m, ok := rec.(*tcam.Model)
	if !ok || (m.K2() > 0) != method.timeTopics() {
		return nil, fmt.Errorf("core: fold-in %s got a %T named %q", method, rec, rec.Name())
	}
	tdata := data
	if method.Weighted() {
		tdata = weighting.WeightCuboid(data)
	}
	cfg := tcam.DefaultFoldInConfig()
	if opts.MaxIters > 0 {
		cfg.Iters = opts.MaxIters
	}
	cfg.Shards, cfg.Workers = opts.Shards, opts.Workers
	return m.FoldInUsers(tdata, cfg)
}
