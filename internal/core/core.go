// Package core provides the unified model registry the experiment
// harness and CLI tools drive: every method compared in the paper's
// Section 5 — UT, TT, ITCAM, TTCAM, their item-weighted variants
// W-ITCAM / W-TTCAM, BPRMF and BPTF — is trainable through one entry
// point with one option set, so sweeps and head-to-head tables stay
// honest (same data, same seeds, same budgets).
package core

import (
	"fmt"
	"time"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/model/bprmf"
	"tcam/internal/model/bptf"
	"tcam/internal/model/plsa"
	"tcam/internal/model/tcam"
	"tcam/internal/model/timesvd"
	"tcam/internal/train"
	"tcam/internal/weighting"
)

// Method names a trainable model, matching the labels in the paper's
// figures.
type Method string

// The eight methods of Section 5.2.
const (
	UT     Method = "UT"
	TT     Method = "TT"
	ITCAM  Method = "ITCAM"
	TTCAM  Method = "TTCAM"
	WITCAM Method = "W-ITCAM"
	WTTCAM Method = "W-TTCAM"
	BPRMF  Method = "BPRMF"
	BPTF   Method = "BPTF"
)

// TimeSVD is the timeSVD++ extension (Koren, KDD 2009) — discussed in
// the paper's related work but not part of its comparison.
const TimeSVD Method = "timeSVD++"

// AllMethods lists every method in the paper's comparison order.
func AllMethods() []Method {
	return []Method{UT, TT, ITCAM, TTCAM, WITCAM, WTTCAM, BPRMF, BPTF}
}

// Weighted reports whether the method trains on the item-weighted
// cuboid of Equation (20).
func (m Method) Weighted() bool { return m == WITCAM || m == WTTCAM }

// mixture reports whether the method is one of the four TCAM mixtures,
// the family internal/model/tcam trains (and the only one that
// checkpoints).
func (m Method) mixture() bool { return m == ITCAM || m == WITCAM || m.timeTopics() }

// timeTopics reports whether the method's temporal context is the
// TTCAM topic mixture (and so reads K2 and Background).
func (m Method) timeTopics() bool { return m == TTCAM || m == WTTCAM }

// Options is the shared training configuration. Zero values fall back
// to each model's defaults.
type Options struct {
	// K1 and K2 are the topic counts for the TCAM family (K1 also
	// drives UT's topic count, K2 TT's).
	K1, K2 int
	// MaxIters bounds EM training; Factors / Epochs configure the
	// factorization baselines; Burnin / Samples the BPTF Gibbs chain.
	MaxIters int
	Factors  int
	Epochs   int
	Burnin   int
	Samples  int
	// Background is the TTCAM background-topic weight extension (0
	// disables it, as in the paper).
	Background float64
	Seed       int64
	Workers    int
	// Tol overrides the relative log-likelihood early-stop tolerance of
	// the six EM methods (UT, TT and the TCAM family): 0 keeps each
	// model's default, a negative value disables the early stop so every
	// iteration runs.
	Tol float64
	// CheckpointDir enables TCAM-family training checkpoints in the
	// directory, snapshotting every CheckpointEvery iterations
	// (CheckpointEvery <= 0 means every iteration); Resume restores the
	// latest snapshot before training. Methods outside the TCAM family
	// reject these options.
	CheckpointDir   string
	CheckpointEvery int
	Resume          bool
	// Hook, when non-nil, observes every iteration of the six EM methods.
	Hook func(model.IterStat)
}

// engineOf overlays the options on the fields of an EM method's config
// that are the internal/train engine's policy (plsa.Config and
// tcam.Config carry them under the same names), each holding the
// model's default on entry.
func engineOf(opts Options, maxIters *int, tol *float64, workers *int, hook *func(model.IterStat)) {
	if opts.MaxIters > 0 {
		*maxIters = opts.MaxIters
	}
	switch {
	case opts.Tol > 0:
		*tol = opts.Tol
	case opts.Tol < 0:
		*tol = 0
	}
	*workers, *hook = opts.Workers, opts.Hook
}

// checkpointOf translates the flat checkpoint options into the engine
// config.
func checkpointOf(opts Options) train.CheckpointConfig {
	return train.CheckpointConfig{Dir: opts.CheckpointDir, Every: opts.CheckpointEvery, Resume: opts.Resume}
}

// Result bundles a trained model with its statistics and wall-clock
// training time (Table 4's measurement).
type Result struct {
	Method    Method
	Model     model.Recommender
	Stats     model.TrainStats
	TrainTime time.Duration
}

// Train fits the named method on the cuboid. Weighted methods apply the
// Section 3.3 item-weighting scheme internally; callers always pass the
// raw cuboid.
func Train(method Method, data *cuboid.Cuboid, opts Options) (Result, error) {
	res := Result{Method: method}
	if (opts.CheckpointDir != "" || opts.Resume) && !method.mixture() {
		return res, fmt.Errorf("core: method %s does not support checkpointing", method)
	}
	tdata := data
	if method.Weighted() {
		tdata = weighting.WeightCuboid(data)
	}
	start := time.Now()
	var err error
	switch method {
	case UT, TT:
		// The two halves of Equation 1 taken alone: K1 user-oriented
		// topics over user documents, K2 time-oriented topics over
		// interval documents.
		axis, k := plsa.Users, opts.K1
		if method == TT {
			axis, k = plsa.Intervals, opts.K2
		}
		cfg := plsa.DefaultConfig(axis)
		if k > 0 {
			cfg.K = k
		}
		engineOf(opts, &cfg.MaxIters, &cfg.Tol, &cfg.Workers, &cfg.Hook)
		cfg.Seed = seedOf(opts)
		res.Model, res.Stats, err = plsa.Train(tdata, axis, cfg)
	case ITCAM, WITCAM, TTCAM, WTTCAM:
		cfg := tcam.DefaultITCAMConfig()
		if method.timeTopics() {
			cfg = tcam.DefaultConfig()
			if opts.K2 > 0 {
				cfg.K2 = opts.K2
			}
			cfg.Background = opts.Background
		}
		if opts.K1 > 0 {
			cfg.K1 = opts.K1
		}
		engineOf(opts, &cfg.MaxIters, &cfg.Tol, &cfg.Workers, &cfg.Hook)
		cfg.Checkpoint, cfg.Seed = checkpointOf(opts), seedOf(opts)
		cfg.Label = string(method)
		res.Model, res.Stats, err = tcam.Train(tdata, cfg)
	case BPRMF:
		cfg := bprmf.DefaultConfig()
		if opts.Factors > 0 {
			cfg.Factors = opts.Factors
		}
		if opts.Epochs > 0 {
			cfg.Epochs = opts.Epochs
		}
		cfg.Seed = seedOf(opts)
		res.Model, res.Stats, err = bprmf.Train(tdata, cfg)
	case TimeSVD:
		cfg := timesvd.DefaultConfig()
		if opts.Factors > 0 {
			cfg.Factors = opts.Factors
		}
		if opts.Epochs > 0 {
			cfg.Epochs = opts.Epochs
		}
		cfg.Seed = seedOf(opts)
		res.Model, res.Stats, err = timesvd.Train(tdata, cfg)
	case BPTF:
		cfg := bptf.DefaultConfig()
		if opts.Factors > 0 {
			cfg.Factors = opts.Factors
		}
		if opts.Burnin > 0 {
			cfg.Burnin = opts.Burnin
		}
		if opts.Samples > 0 {
			cfg.Samples = opts.Samples
		}
		cfg.Seed, cfg.Workers = seedOf(opts), opts.Workers
		res.Model, res.Stats, err = bptf.Train(tdata, cfg)
	default:
		return res, fmt.Errorf("core: unknown method %q", method)
	}
	res.TrainTime = time.Since(start)
	if err != nil {
		return res, fmt.Errorf("core: train %s: %w", method, err)
	}
	return res, nil
}

func seedOf(opts Options) int64 {
	if opts.Seed != 0 {
		return opts.Seed
	}
	return 1
}
