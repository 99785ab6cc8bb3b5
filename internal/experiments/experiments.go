// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the synthetic worlds of internal/datagen.
// Each driver returns a typed result — so tests and benches can assert
// the paper's qualitative shapes — and can render itself in the paper's
// row/series layout. The per-experiment index lives in DESIGN.md;
// paper-vs-measured numbers are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"text/tabwriter"

	"tcam/internal/core"
	"tcam/internal/cuboid"
	"tcam/internal/datagen"
	"tcam/internal/dataset"
	"tcam/internal/eval"
)

// Config tunes how heavy an experiment run is. The zero value is not
// usable; start from Default() or Small().
type Config struct {
	// Seed drives world generation, splits and training.
	Seed int64
	// Scale multiplies the default world sizes (users and days);
	// Small() uses it to keep CI and benches fast.
	Scale float64
	// MaxQueries caps evaluation queries per (dataset, method); 0 means
	// all.
	MaxQueries int
	// EMIters / Factors / GibbsSweeps bound model training.
	EMIters     int
	Factors     int
	GibbsBurnin int
	GibbsKeep   int
	// K1 / K2 are the TCAM topic counts used outside the sweeps that
	// vary them.
	K1, K2 int
	// Workers caps parallelism (0 = all CPUs).
	Workers int
}

// Default returns the full-size configuration used to produce
// EXPERIMENTS.md.
func Default() Config {
	return Config{
		Seed:        1,
		Scale:       1,
		MaxQueries:  4000,
		EMIters:     40,
		Factors:     16,
		GibbsBurnin: 10,
		GibbsKeep:   6,
		K1:          60,
		K2:          40,
	}
}

// Small returns a configuration an order of magnitude lighter, for
// benches and smoke tests. The qualitative shapes still hold; absolute
// numbers are noisier.
func Small() Config {
	return Config{
		Seed:        1,
		Scale:       0.25,
		MaxQueries:  500,
		EMIters:     15,
		Factors:     8,
		GibbsBurnin: 4,
		GibbsKeep:   3,
		K1:          20,
		K2:          12,
	}
}

// Runner generates worlds lazily (one per profile, cached) and hosts
// the per-experiment drivers.
type Runner struct {
	cfg    Config
	worlds map[datagen.Profile]*datagen.World
}

// NewRunner returns a Runner over the given configuration.
func NewRunner(cfg Config) *Runner {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	return &Runner{cfg: cfg, worlds: make(map[datagen.Profile]*datagen.World)}
}

// World returns the (cached) synthetic world for a profile, scaled by
// the runner's configuration.
func (r *Runner) World(p datagen.Profile) *datagen.World {
	if w, ok := r.worlds[p]; ok {
		return w
	}
	cfg := datagen.DefaultConfig(p)
	cfg.Seed = r.cfg.Seed
	cfg.NumUsers = scaleInt(cfg.NumUsers, r.cfg.Scale, 40)
	// Days shrink more gently than users: halving the timeline already
	// crowds the event structure the temporal experiments rely on.
	dayScale := r.cfg.Scale
	if dayScale < 0.5 {
		dayScale = 0.5
	}
	cfg.NumDays = scaleInt(cfg.NumDays, dayScale, 20)
	if p != datagen.Douban {
		// Douban keeps its large catalog — that IS the experiment
		// (Figures 8 and Table 4 measure catalog-size effects).
		cfg.NumItems = scaleInt(cfg.NumItems, r.cfg.Scale, 60)
	}
	cfg.Genres = clampMin(scaleInt(cfg.Genres, r.cfg.Scale, 4), 4)
	cfg.Events = clampMin(scaleInt(cfg.Events, r.cfg.Scale, 5), 5)
	w := datagen.MustGenerate(cfg)
	r.worlds[p] = w
	return w
}

func scaleInt(n int, scale float64, min int) int {
	out := int(float64(n) * scale)
	return clampMin(out, min)
}

func clampMin(n, min int) int {
	if n < min {
		return min
	}
	return n
}

// intervalDays returns the paper's optimal interval length per profile
// (Section 5.3.2): three days for Digg, one month for the movie
// datasets, and two weeks for Delicious.
func intervalDays(p datagen.Profile) int64 {
	switch p {
	case datagen.Digg:
		return 3
	case datagen.MovieLens, datagen.Douban:
		return 30
	default:
		return 14
	}
}

// gridWorld buckets a world's log at the profile's default granularity.
func (r *Runner) gridWorld(p datagen.Profile) (*cuboid.Cuboid, dataset.TimeGrid) {
	w := r.World(p)
	c, grid, err := w.Log.Grid(intervalDays(p))
	if err != nil {
		panic(fmt.Sprintf("experiments: grid %s: %v", p, err))
	}
	return c, grid
}

// trainOpts converts the runner configuration into core training
// options.
func (r *Runner) trainOpts() core.Options {
	return core.Options{
		K1:       r.cfg.K1,
		K2:       r.cfg.K2,
		MaxIters: r.cfg.EMIters,
		Factors:  r.cfg.Factors,
		Epochs:   r.cfg.EMIters,
		Burnin:   r.cfg.GibbsBurnin,
		Samples:  r.cfg.GibbsKeep,
		Seed:     r.cfg.Seed,
		Workers:  r.cfg.Workers,
	}
}

// splitQueries produces the 80/20 per-(u,t) split and its evaluation
// queries, thinned to MaxQueries.
func (r *Runner) splitQueries(data *cuboid.Cuboid) (dataset.Split, []eval.Query) {
	rng := rand.New(rand.NewSource(r.cfg.Seed + 17))
	split := dataset.SplitPerInterval(rng, data, 0.2)
	queries := eval.SampleQueries(eval.BuildQueries(split), r.cfg.MaxQueries)
	return split, queries
}

// sortedMethods returns methods in the paper's presentation order.
func sortedMethods(curves map[string]eval.Curve) []string {
	order := map[string]int{}
	for i, m := range core.AllMethods() {
		order[string(m)] = i
	}
	names := make([]string, 0, len(curves))
	for name := range curves {
		names = append(names, name)
	}
	// Tie-break by name: methods outside the presentation order (all
	// mapping to rank 0) would otherwise keep their map-iteration
	// permutation — sort.Slice leaves tied elements in input order.
	sort.Slice(names, func(a, b int) bool {
		if order[names[a]] != order[names[b]] {
			return order[names[a]] < order[names[b]]
		}
		return names[a] < names[b]
	})
	return names
}

// fprintf writes formatted output, ignoring write errors (report
// streams are stdout or test buffers). The fprintf/fprintln/flush
// family is the package's single, visible discard point for render
// errors; renderers must route all table output through it.
func fprintf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		_, _ = fmt.Fprintf(w, format, args...)
	}
}

// fprintln is fprintln-shaped fprintf: write a line, ignore the write
// error.
func fprintln(w io.Writer, args ...interface{}) {
	if w != nil {
		_, _ = fmt.Fprintln(w, args...)
	}
}

// flush drains a renderer's tabwriter, ignoring the write error for
// the same reason fprintf does.
func flush(tw *tabwriter.Writer) { _ = tw.Flush() }
