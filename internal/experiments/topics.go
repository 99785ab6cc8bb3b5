package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"tcam/internal/core"
	"tcam/internal/cuboid"
	"tcam/internal/datagen"
	"tcam/internal/model/plsa"
	"tcam/internal/model/tcam"
)

// TopicSignatureResult is the payload of Figure 2: the temporal
// signatures (normalized per-interval activity) of one time-oriented
// and one user-oriented topic discovered by W-TTCAM on the
// Delicious-like world, plus their top items.
type TopicSignatureResult struct {
	Dataset string
	// Normalized activity series over intervals.
	TimeTopicSeries []float64
	UserTopicSeries []float64
	// Top-8 item labels of each topic.
	TimeTopicItems []string
	UserTopicItems []string
	// Peakedness = max/mean of the raw series; a bursty time topic has
	// a far higher value than a stable interest topic.
	TimePeakedness float64
	UserPeakedness float64
}

// Figure2 reproduces "An Example of Two Types of Topics in Delicious":
// it trains W-TTCAM, picks the spikiest time-oriented topic and the
// flattest user-oriented one, and returns their temporal signatures.
func (r *Runner) Figure2() (*TopicSignatureResult, error) {
	p := datagen.Delicious
	data, _ := r.gridWorld(p)
	res, err := core.Train(core.WTTCAM, data, r.trainOpts())
	if err != nil {
		return nil, fmt.Errorf("experiments: figure2: %w", err)
	}
	m := res.Model.(*tcam.Model)
	w := r.World(p)

	bestTime, bestTimeSeries, bestTimePeak := -1, []float64(nil), -1.0
	for x := 0; x < m.K2(); x++ {
		series := topicActivitySeries(data, m.TimeTopic(x))
		if peak := peakedness(series); peak > bestTimePeak {
			bestTime, bestTimeSeries, bestTimePeak = x, series, peak
		}
	}
	bestUser, bestUserSeries, bestUserPeak := -1, []float64(nil), -1.0
	for z := 0; z < m.K1(); z++ {
		series := topicActivitySeries(data, m.UserTopic(z))
		if peak := peakedness(series); bestUserPeak < 0 || peak < bestUserPeak {
			bestUser, bestUserSeries, bestUserPeak = z, series, peak
		}
	}
	return &TopicSignatureResult{
		Dataset:         p.String(),
		TimeTopicSeries: cuboid.NormalizeSeries(bestTimeSeries),
		UserTopicSeries: cuboid.NormalizeSeries(bestUserSeries),
		TimeTopicItems:  topItemNames(w, m.TimeTopic(bestTime), 8),
		UserTopicItems:  topItemNames(w, m.UserTopic(bestUser), 8),
		TimePeakedness:  bestTimePeak,
		UserPeakedness:  bestUserPeak,
	}, nil
}

// Render prints the two series with their top items.
func (f *TopicSignatureResult) Render(w io.Writer) {
	fprintf(w, "Two types of topics on %s\n", f.Dataset)
	fprintf(w, "time-oriented topic (peakedness %.2f): %v\n", f.TimePeakedness, f.TimeTopicItems)
	fprintf(w, "user-oriented topic (peakedness %.2f): %v\n", f.UserPeakedness, f.UserTopicItems)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fprintln(tw, "interval\ttime-oriented\tuser-oriented")
	for i := range f.TimeTopicSeries {
		fprintf(tw, "%d\t%.3f\t%.3f\n", i, f.TimeTopicSeries[i], f.UserTopicSeries[i])
	}
	flush(tw)
}

// topicActivitySeries sums the per-interval frequencies of a topic's
// top-10 items — the paper's "normalized frequency" proxy for a topic's
// temporal footprint.
func topicActivitySeries(data *cuboid.Cuboid, weights []float64) []float64 {
	top := topIndices(weights, 10)
	series := make([]float64, data.NumIntervals())
	for _, v := range top {
		for t, x := range itemSeries(data, v) {
			series[t] += x
		}
	}
	return series
}

func peakedness(series []float64) float64 {
	var max, sum float64
	for _, x := range series {
		if x > max {
			max = x
		}
		sum += x
	}
	if sum <= 0 {
		return 0
	}
	mean := sum / float64(len(series))
	return max / mean
}

// topIndices returns the indices of the n largest weights, descending.
func topIndices(weights []float64, n int) []int {
	idx := make([]int, len(weights))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if weights[idx[a]] > weights[idx[b]] {
			return true
		}
		if weights[idx[a]] < weights[idx[b]] {
			return false
		}
		return idx[a] < idx[b]
	})
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}

func topItemNames(w *datagen.World, weights []float64, n int) []string {
	out := make([]string, 0, n)
	for _, v := range topIndices(weights, n) {
		out = append(out, w.Log.ItemID(v))
	}
	return out
}

// BurstySeriesItem is one curve of Figure 5.
type BurstySeriesItem struct {
	Name   string
	Bursty bool
	// Series is the normalized per-interval frequency.
	Series []float64
	// Concentration is the share of raw mass within ±3 burst widths of
	// the item's event peak (bursty items) or around the series argmax
	// (popular items).
	Concentration float64
}

// BurstySeriesResult is the payload of Figure 5: bursty event tags
// spike together while generic popular tags stay flat.
type BurstySeriesResult struct {
	Dataset string
	Items   []BurstySeriesItem
	// Mean concentration per class.
	BurstyConcentration  float64
	PopularConcentration float64
}

// Figure5 reproduces "An Example of Bursty Tags and Popular Tags" on
// the Delicious-like world, using ground truth to pick three co-bursting
// event tags and three always-popular generic tags.
func (r *Runner) Figure5() (*BurstySeriesResult, error) {
	p := datagen.Delicious
	w := r.World(p)
	data, grid := r.gridWorld(p)
	st := cuboid.ComputeStats(data)

	bestCluster, err := heaviestEventCluster(p, w, st)
	if err != nil {
		return nil, err
	}

	pickTop := func(candidates []int, n int) []int {
		sort.Slice(candidates, func(a, b int) bool {
			if st.ItemUsers[candidates[a]] != st.ItemUsers[candidates[b]] {
				return st.ItemUsers[candidates[a]] > st.ItemUsers[candidates[b]]
			}
			return candidates[a] < candidates[b]
		})
		if n > len(candidates) {
			n = len(candidates)
		}
		return candidates[:n]
	}
	var burstyCand, genericCand []int
	for v := 0; v < data.NumItems(); v++ {
		switch {
		case w.Truth.EventCluster[v] == bestCluster:
			burstyCand = append(burstyCand, v)
		case w.Truth.GenericPopular[v]:
			genericCand = append(genericCand, v)
		}
	}
	peakInterval := grid.IntervalOf(int64(w.Truth.PeakDay[bestCluster]))
	radius := int(3*w.Config.BurstWidthDays/float64(grid.Length)) + 1

	out := &BurstySeriesResult{Dataset: p.String()}
	var burstySum, popularSum float64
	var burstyN, popularN int
	add := func(v int, bursty bool) {
		raw := itemSeries(data, v)
		center := peakInterval
		if !bursty {
			_, center = argmaxSeries(raw)
		}
		conc := concentration(raw, center, radius)
		out.Items = append(out.Items, BurstySeriesItem{
			Name:          w.Log.ItemID(v),
			Bursty:        bursty,
			Series:        cuboid.NormalizeSeries(raw),
			Concentration: conc,
		})
		if bursty {
			burstySum += conc
			burstyN++
		} else {
			popularSum += conc
			popularN++
		}
	}
	for _, v := range pickTop(burstyCand, 3) {
		add(v, true)
	}
	for _, v := range pickTop(genericCand, 3) {
		add(v, false)
	}
	if burstyN == 0 || popularN == 0 {
		return nil, fmt.Errorf("experiments: figure5: missing items (%d bursty, %d popular)", burstyN, popularN)
	}
	out.BurstyConcentration = burstySum / float64(burstyN)
	out.PopularConcentration = popularSum / float64(popularN)
	return out, nil
}

func argmaxSeries(series []float64) (float64, int) {
	best, arg := -1.0, 0
	for i, x := range series {
		if x > best {
			best, arg = x, i
		}
	}
	return best, arg
}

func concentration(series []float64, center, radius int) float64 {
	var near, total float64
	for i, x := range series {
		total += x
		if i >= center-radius && i <= center+radius {
			near += x
		}
	}
	if total <= 0 {
		return 0
	}
	return near / total
}

// Render prints the per-item concentrations and series.
func (f *BurstySeriesResult) Render(w io.Writer) {
	fprintf(w, "Bursty vs popular tags on %s (mass concentration near the event peak)\n", f.Dataset)
	fprintf(w, "mean concentration: bursty %.3f, popular %.3f\n", f.BurstyConcentration, f.PopularConcentration)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fprintln(tw, "tag\tclass\tconcentration")
	for _, item := range f.Items {
		class := "popular"
		if item.Bursty {
			class = "bursty"
		}
		fprintf(tw, "%s\t%s\t%.3f\n", item.Name, class, item.Concentration)
	}
	flush(tw)
}

// TopicQualityRow is one model's matched time-oriented topic in
// Tables 5 and 6.
type TopicQualityRow struct {
	Model    string
	TopItems []string
	// BurstPurity is the share of the top items that belong to the
	// matched ground-truth event cluster; GenericShare the share that
	// are always-popular generics (the "headline/news/world" tags the
	// paper shows crowding out event terms).
	BurstPurity  float64
	GenericShare float64
}

// TopicQualityResult is the payload of Tables 5 and 6.
type TopicQualityResult struct {
	Dataset string
	Cluster int // matched ground-truth event cluster
	Rows    []TopicQualityRow
}

// Table5 reproduces the "Michael Jackson" comparison on the
// Delicious-like world: the same real-world event as recovered by TT,
// TTCAM and W-TTCAM; item weighting should push generic tags out and
// event tags in.
func (r *Runner) Table5() (*TopicQualityResult, error) {
	return r.topicQualityOn(datagen.Delicious)
}

// Table6 reproduces the "T2007" comparison on the Douban-like world:
// time topics should collect items of one release cohort, and item
// weighting should purge long-standing popular movies.
func (r *Runner) Table6() (*TopicQualityResult, error) {
	return r.topicQualityOn(datagen.Douban)
}

func (r *Runner) topicQualityOn(p datagen.Profile) (*TopicQualityResult, error) {
	w := r.World(p)
	data, _ := r.gridWorld(p)
	st := cuboid.ComputeStats(data)

	bestCluster, err := heaviestEventCluster(p, w, st)
	if err != nil {
		return nil, err
	}

	out := &TopicQualityResult{Dataset: p.String(), Cluster: bestCluster}
	const topN = 8

	appraise := func(name string, topicOf func(x int) []float64, numTopics int) {
		// Pick the topic placing the most probability mass on the
		// matched cluster's items.
		bestTopic, bestScore := -1, -1.0
		for x := 0; x < numTopics; x++ {
			weights := topicOf(x)
			var mass float64
			for v, pw := range weights {
				if w.Truth.EventCluster[v] == bestCluster {
					mass += pw
				}
			}
			if mass > bestScore {
				bestTopic, bestScore = x, mass
			}
		}
		weights := topicOf(bestTopic)
		top := topIndices(weights, topN)
		row := TopicQualityRow{Model: name}
		for _, v := range top {
			row.TopItems = append(row.TopItems, w.Log.ItemID(v))
			if w.Truth.EventCluster[v] == bestCluster {
				row.BurstPurity++
			}
			if w.Truth.GenericPopular[v] {
				row.GenericShare++
			}
		}
		row.BurstPurity /= float64(len(top))
		row.GenericShare /= float64(len(top))
		out.Rows = append(out.Rows, row)
	}

	ttRes, err := core.Train(core.TT, data, r.trainOpts())
	if err != nil {
		return nil, fmt.Errorf("experiments: topic quality TT: %w", err)
	}
	ttModel := ttRes.Model.(*plsa.Model)
	appraise("TT", ttModel.Topic, ttModel.K())

	for _, m := range []core.Method{core.TTCAM, core.WTTCAM} {
		res, err := core.Train(m, data, r.trainOpts())
		if err != nil {
			return nil, fmt.Errorf("experiments: topic quality %s: %w", m, err)
		}
		tm := res.Model.(*tcam.Model)
		appraise(string(m), tm.TimeTopic, tm.K2())
	}
	return out, nil
}

// heaviestEventCluster returns the ground-truth event cluster whose
// items the most users rated (ties go to the lower id): the event that
// Figure 5 and Tables 5–6 match topics against.
func heaviestEventCluster(p datagen.Profile, w *datagen.World, st *cuboid.Stats) (int, error) {
	clusterMass := make(map[int]int)
	for v, users := range st.ItemUsers {
		if x := w.Truth.EventCluster[v]; x >= 0 {
			clusterMass[x] += users
		}
	}
	bestCluster, bestMass := -1, -1
	for x, mass := range clusterMass {
		if mass > bestMass || (mass == bestMass && x < bestCluster) {
			bestCluster, bestMass = x, mass
		}
	}
	if bestCluster < 0 {
		return -1, fmt.Errorf("experiments: no event clusters in the %s world", p)
	}
	return bestCluster, nil
}

// Render prints one block per model.
func (t *TopicQualityResult) Render(w io.Writer) {
	fprintf(w, "Time-oriented topic matched to ground-truth event cluster e%02d on %s\n", t.Cluster, t.Dataset)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fprintln(tw, "model\tburst purity\tgeneric share\ttop items")
	for _, row := range t.Rows {
		fprintf(tw, "%s\t%.3f\t%.3f\t%v\n", row.Model, row.BurstPurity, row.GenericShare, row.TopItems)
	}
	flush(tw)
}

// Purity returns the burst purity of a model's row, or -1 when absent.
func (t *TopicQualityResult) Purity(model string) float64 {
	for _, row := range t.Rows {
		if row.Model == model {
			return row.BurstPurity
		}
	}
	return -1
}

// SeparationResult is the payload of Table 7: user-oriented topics
// should cluster genres while time-oriented topics cluster release
// cohorts — measured as mean purities rather than eyeballed movie
// lists.
type SeparationResult struct {
	Dataset string
	// Mean max-share purities over topics (top-10 items each).
	UserGenrePurity  float64
	UserCohortPurity float64
	TimeCohortPurity float64
	TimeGenrePurity  float64
	// Example listings, one user- and one time-oriented topic.
	ExampleUserTopic []string
	ExampleTimeTopic []string
}

// Table7 reproduces "Comparison between User-Oriented and Time-Oriented
// Topics Detected on Douban Movie" with W-TTCAM.
func (r *Runner) Table7() (*SeparationResult, error) {
	p := datagen.Douban
	w := r.World(p)
	data, _ := r.gridWorld(p)
	res, err := core.Train(core.WTTCAM, data, r.trainOpts())
	if err != nil {
		return nil, fmt.Errorf("experiments: table7: %w", err)
	}
	m := res.Model.(*tcam.Model)
	const topN = 20

	genreOf := func(v int) int { return w.Truth.Genre[v] }
	cohortOf := func(v int) int { return w.Truth.EventCluster[v] }
	// Compare genre and cohort purity over the SAME item subset — the
	// doubly-labeled cohort items — so the two shares have the same
	// sample size and chance baseline.
	doublyLabeled := func(top []int) []int {
		out := make([]int, 0, len(top))
		for _, v := range top {
			if w.Truth.EventCluster[v] >= 0 && w.Truth.Genre[v] >= 0 {
				out = append(out, v)
			}
		}
		return out
	}

	out := &SeparationResult{Dataset: p.String()}
	var ugSum, ucSum float64
	var ugN, ucN int
	for z := 0; z < m.K1(); z++ {
		top := doublyLabeled(topIndices(m.UserTopic(z), topN))
		if p, ok := maxLabelShare(top, genreOf); ok {
			ugSum += p
			ugN++
		}
		if p, ok := maxLabelShare(top, cohortOf); ok {
			ucSum += p
			ucN++
		}
	}
	var tcSum, tgSum float64
	var tcN, tgN int
	for x := 0; x < m.K2(); x++ {
		top := doublyLabeled(topIndices(m.TimeTopic(x), topN))
		if p, ok := maxLabelShare(top, cohortOf); ok {
			tcSum += p
			tcN++
		}
		if p, ok := maxLabelShare(top, genreOf); ok {
			tgSum += p
			tgN++
		}
	}
	out.UserGenrePurity = safeDiv(ugSum, ugN)
	out.UserCohortPurity = safeDiv(ucSum, ucN)
	out.TimeCohortPurity = safeDiv(tcSum, tcN)
	out.TimeGenrePurity = safeDiv(tgSum, tgN)
	out.ExampleUserTopic = topItemNames(w, m.UserTopic(0), topN)
	out.ExampleTimeTopic = topItemNames(w, m.TimeTopic(0), topN)
	return out, nil
}

// maxLabelShare returns the largest share of a single label among the
// labeled items of top (items labeled -1 are skipped); ok is false when
// fewer than three items carry labels.
func maxLabelShare(top []int, labelOf func(v int) int) (float64, bool) {
	counts := make(map[int]int)
	labeled := 0
	for _, v := range top {
		if l := labelOf(v); l >= 0 {
			counts[l]++
			labeled++
		}
	}
	if labeled < 3 {
		return 0, false
	}
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	return float64(best) / float64(labeled), true
}

func safeDiv(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints the four purities plus example listings.
func (s *SeparationResult) Render(w io.Writer) {
	fprintf(w, "User- vs time-oriented topic separation on %s (W-TTCAM, top-10 items per topic)\n", s.Dataset)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fprintln(tw, "topic family\tgenre purity\trelease-cohort purity")
	fprintf(tw, "user-oriented\t%.3f\t%.3f\n", s.UserGenrePurity, s.UserCohortPurity)
	fprintf(tw, "time-oriented\t%.3f\t%.3f\n", s.TimeGenrePurity, s.TimeCohortPurity)
	flush(tw)
	fprintf(w, "example user-oriented topic: %v\n", s.ExampleUserTopic)
	fprintf(w, "example time-oriented topic: %v\n", s.ExampleTimeTopic)
}
