package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"tcam/internal/core"
	"tcam/internal/datagen"
	"tcam/internal/model/tcam"
	"tcam/internal/stats"
)

// LambdaCDFResult is the payload of Figures 10 and 11: the cumulative
// distributions of the learned personal-interest influence λu and the
// temporal-context influence 1−λu across users, plus the correlation
// with the generator's ground-truth λ.
type LambdaCDFResult struct {
	Dataset string
	// Xs is the CDF evaluation grid over [0, 1]; PersonalCDF[i] =
	// P(λu ≤ Xs[i]), TemporalCDF[i] = P(1−λu ≤ Xs[i]).
	Xs          []float64
	PersonalCDF []float64
	TemporalCDF []float64
	// MeanLambda is the mean learned λu.
	MeanLambda float64
	// TruthCorrelation is the Pearson correlation between learned and
	// ground-truth λu (not available to the paper — a bonus the
	// synthetic worlds make possible).
	TruthCorrelation float64
}

// Figure10 reproduces "Temporal Context Influence Result (MovieLens)":
// λu concentrates high — movie selection is interest-driven.
func (r *Runner) Figure10() (*LambdaCDFResult, error) {
	return r.lambdaOn(datagen.MovieLens)
}

// Figure11 reproduces the Digg counterpart: λu concentrates low — news
// reading is temporal-context-driven.
func (r *Runner) Figure11() (*LambdaCDFResult, error) {
	return r.lambdaOn(datagen.Digg)
}

func (r *Runner) lambdaOn(p datagen.Profile) (*LambdaCDFResult, error) {
	data, _ := r.gridWorld(p)
	res, err := core.Train(core.WTTCAM, data, r.trainOpts())
	if err != nil {
		return nil, fmt.Errorf("experiments: lambda on %s: %w", p, err)
	}
	m := res.Model.(*tcam.Model)
	w := r.World(p)
	lambdas := make([]float64, m.NumUsers())
	for u := range lambdas {
		lambdas[u] = m.Lambda(u)
	}
	inverse := make([]float64, len(lambdas))
	for u, l := range lambdas {
		inverse[u] = 1 - l
	}
	const points = 21
	xs, personal := stats.NewECDF(lambdas).Table(0, 1, points)
	_, temporal := stats.NewECDF(inverse).Table(0, 1, points)
	return &LambdaCDFResult{
		Dataset:          p.String(),
		Xs:               xs,
		PersonalCDF:      personal,
		TemporalCDF:      temporal,
		MeanLambda:       stats.Mean(lambdas),
		TruthCorrelation: pearson(lambdas, w.Truth.Lambda),
	}, nil
}

// Render prints both CDFs side by side.
func (l *LambdaCDFResult) Render(w io.Writer) {
	fprintf(w, "Influence probability CDFs on %s (mean λu = %.3f, corr. with ground truth = %.3f)\n",
		l.Dataset, l.MeanLambda, l.TruthCorrelation)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fprintln(tw, "x\tCDF personal (λu ≤ x)\tCDF temporal (1−λu ≤ x)")
	for i, x := range l.Xs {
		fprintf(tw, "%.2f\t%.3f\t%.3f\n", x, l.PersonalCDF[i], l.TemporalCDF[i])
	}
	flush(tw)
}

// pearson returns the Pearson correlation of two equal-length samples,
// or 0 when degenerate.
func pearson(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	ma, mb := stats.Mean(a[:n]), stats.Mean(b[:n])
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
