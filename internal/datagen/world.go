package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tcam/internal/dataset"
	"tcam/internal/stats"
)

// assignItems gives every item its ground-truth genre, event cluster,
// burstiness flag and release day, and places the temporal-process
// peaks across the timeline.
func assignItems(cfg Config, rng *rand.Rand, truth *GroundTruth) {
	// Spread process peaks evenly with jitter so the timeline is covered.
	for x := 0; x < cfg.Events; x++ {
		center := (float64(x) + 0.5) * float64(cfg.NumDays) / float64(cfg.Events)
		jitter := (rng.Float64() - 0.5) * float64(cfg.NumDays) / float64(cfg.Events) * 0.4
		peak := int(center + jitter)
		if peak < 0 {
			peak = 0
		}
		if peak >= cfg.NumDays {
			peak = cfg.NumDays - 1
		}
		truth.PeakDay[x] = peak
	}
	for v := 0; v < cfg.NumItems; v++ {
		truth.Genre[v] = -1
		truth.EventCluster[v] = -1
		switch {
		case rng.Float64() < cfg.GenericPopularFrac:
			truth.GenericPopular[v] = true
			truth.Genre[v] = rng.Intn(cfg.Genres)
			truth.ReleaseDay[v] = 0
		case rng.Float64() < cfg.EventItemFrac:
			x := rng.Intn(cfg.Events)
			truth.EventCluster[v] = x
			truth.Bursty[v] = true
			if cfg.CohortStyle {
				// Cohort items (movies) also belong to a genre and are
				// released shortly before their cohort wave peaks.
				truth.Genre[v] = rng.Intn(cfg.Genres)
			}
			rel := truth.PeakDay[x] - int(rng.Float64()*cfg.BurstWidthDays)
			if rel < 0 {
				rel = 0
			}
			truth.ReleaseDay[v] = rel
		default:
			truth.Genre[v] = rng.Intn(cfg.Genres)
			// Stable items enter early so they are available all along.
			truth.ReleaseDay[v] = rng.Intn(cfg.NumDays/3 + 1)
		}
	}
}

// indexItems inverts the per-item assignments into member lists per
// genre, per event cluster, and the generic-popular list.
func indexItems(cfg Config, truth *GroundTruth) (genreItems, eventItems [][]int, genericItems []int) {
	genreItems = make([][]int, cfg.Genres)
	eventItems = make([][]int, cfg.Events)
	for v := 0; v < cfg.NumItems; v++ {
		if truth.GenericPopular[v] {
			genericItems = append(genericItems, v)
			continue
		}
		if g := truth.Genre[v]; g >= 0 {
			genreItems[g] = append(genreItems[g], v)
		}
		if x := truth.EventCluster[v]; x >= 0 {
			eventItems[x] = append(eventItems[x], v)
		}
	}
	return genreItems, eventItems, genericItems
}

// itemPrefix returns the item-name prefix of a profile.
func itemPrefix(p Profile) string {
	switch p {
	case Digg:
		return "story"
	case MovieLens, Douban:
		return "movie"
	case Delicious:
		return "tag"
	default:
		return "item"
	}
}

// ItemName renders the self-describing identifier of item v, encoding
// its ground-truth genre (gNN), event cluster (eNN) and generic flag —
// the synthetic counterpart of the tag/movie names in Tables 5–7.
func ItemName(cfg Config, truth *GroundTruth, v int) string {
	prefix := itemPrefix(cfg.Profile)
	switch {
	case truth.GenericPopular[v]:
		return fmt.Sprintf("%s-generic-%04d", prefix, v)
	case truth.EventCluster[v] >= 0 && truth.Genre[v] >= 0:
		return fmt.Sprintf("%s-g%02d-e%02d-%05d", prefix, truth.Genre[v], truth.EventCluster[v], v)
	case truth.EventCluster[v] >= 0:
		return fmt.Sprintf("%s-e%02d-%05d", prefix, truth.EventCluster[v], v)
	default:
		return fmt.Sprintf("%s-g%02d-%05d", prefix, truth.Genre[v], v)
	}
}

// internItems registers every item with the log in index order so dense
// item indices in the log match ground-truth indices.
func internItems(cfg Config, log *dataset.Interactions, truth *GroundTruth) {
	for v := 0; v < cfg.NumItems; v++ {
		if got := log.Items.Intern(ItemName(cfg, truth, v)); got != v {
			panic(fmt.Sprintf("datagen: item interning drift %d != %d", got, v))
		}
	}
}

// itemSampler draws items from a fixed discrete distribution in
// O(log n) via a cumulative table.
type itemSampler struct {
	items []int
	cum   []float64
}

func newItemSampler(items []int, weights []float64) itemSampler {
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	return itemSampler{items: items, cum: cum}
}

// sample draws one member item; ok is false for an empty sampler.
func (s itemSampler) sample(rng *rand.Rand) (int, bool) {
	if len(s.items) == 0 {
		return 0, false
	}
	total := s.cum[len(s.cum)-1]
	if total <= 0 {
		return s.items[rng.Intn(len(s.items))], true
	}
	u := rng.Float64() * total
	i := sort.SearchFloat64s(s.cum, u)
	if i >= len(s.items) {
		i = len(s.items) - 1
	}
	return s.items[i], true
}

// topicDistributions builds one Zipf-skewed item sampler per topic,
// with a random within-topic popularity order.
func topicDistributions(cfg Config, rng *rand.Rand, membership [][]int) []itemSampler {
	out := make([]itemSampler, len(membership))
	for k, members := range membership {
		if len(members) == 0 {
			out[k] = itemSampler{}
			continue
		}
		shuffled := append([]int(nil), members...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		out[k] = newItemSampler(shuffled, stats.Zipf(len(shuffled), cfg.TopicSkew))
	}
	return out
}

// promoteGenerics mixes the always-popular generic items into every
// temporal process with a fixed mass share, reproducing the Figure 5
// situation where generic tags ride along with every event.
func promoteGenerics(cfg Config, eventDist []itemSampler, genericItems []int) {
	if len(genericItems) == 0 || cfg.GenericShare <= 0 {
		return
	}
	genericShare := cfg.GenericShare
	for x := range eventDist {
		s := &eventDist[x]
		if len(s.items) == 0 {
			continue
		}
		topicMass := s.cum[len(s.cum)-1]
		extra := topicMass * genericShare / (1 - genericShare) / float64(len(genericItems))
		items := append(append([]int(nil), s.items...), genericItems...)
		weights := make([]float64, len(items))
		prev := 0.0
		for i := range s.items {
			weights[i] = s.cum[i] - prev
			prev = s.cum[i]
		}
		for i := range genericItems {
			weights[len(s.items)+i] = extra
		}
		*s = newItemSampler(items, weights)
	}
}

// eventPrevalence returns, for every day, the mixture over temporal
// processes active that day. Bursty processes use a symmetric Gaussian
// envelope of width BurstWidthDays; cohort processes rise sharply at
// release and decay slowly (asymmetric envelope), like a movie season.
func eventPrevalence(cfg Config, truth *GroundTruth) [][]float64 {
	out := make([][]float64, cfg.NumDays)
	for d := range out {
		row := make([]float64, cfg.Events)
		var total float64
		for x := 0; x < cfg.Events; x++ {
			dist := float64(d - truth.PeakDay[x])
			var amp float64
			if cfg.CohortStyle {
				left, right := cfg.BurstWidthDays*0.5, cfg.BurstWidthDays*2.5
				if dist < 0 {
					amp = math.Exp(-0.5 * dist * dist / (left * left))
				} else {
					amp = math.Exp(-0.5 * dist * dist / (right * right))
				}
			} else {
				w := cfg.BurstWidthDays
				amp = math.Exp(-0.5 * dist * dist / (w * w))
			}
			row[x] = amp
			total += amp
		}
		if total <= 1e-12 {
			for x := range row {
				row[x] = 1 / float64(cfg.Events)
			}
		} else {
			for x := range row {
				row[x] /= total
			}
		}
		out[d] = row
	}
	return out
}

// starScore draws a 1–5 rating with the mildly positive skew real rating
// sites show.
func starScore(rng *rand.Rand) float64 {
	return float64(1 + stats.Categorical(rng, []float64{0.05, 0.10, 0.25, 0.35, 0.25}))
}

// emitEvents walks users × days and emits the interaction log following
// the TCAM generative story: coin λu; heads → genre draw from the user's
// interest, tails → draw from the day's temporal mixture.
func emitEvents(cfg Config, rng *rand.Rand, w *World,
	genreDist, eventDist []itemSampler, prevalence [][]float64) {
	truth := w.Truth
	for u := 0; u < cfg.NumUsers; u++ {
		userID := fmt.Sprintf("u%05d", u)
		if got := w.Log.Users.Intern(userID); got != u {
			panic(fmt.Sprintf("datagen: user interning drift %d != %d", got, u))
		}
		for d := 0; d < cfg.NumDays; d++ {
			if rng.Float64() >= cfg.ActiveDayProb {
				continue
			}
			n := stats.Poisson(rng, cfg.EventsPerActiveDay)
			for e := 0; e < n; e++ {
				v, ok := drawItem(cfg, rng, u, d, truth, genreDist, eventDist, prevalence)
				if !ok {
					continue
				}
				score := 1.0
				if cfg.Stars {
					score = starScore(rng)
				}
				if err := w.Log.Add(userID, ItemName(cfg, truth, v), int64(d), score); err != nil {
					//tcamvet:ignore panicfmt re-panics a Log.Add error that already carries the "dataset:" prefix
					panic(err)
				}
			}
		}
	}
}

func drawItem(cfg Config, rng *rand.Rand, u, d int, truth *GroundTruth,
	genreDist, eventDist []itemSampler, prevalence [][]float64) (int, bool) {
	if rng.Float64() < cfg.NoiseFrac {
		return rng.Intn(cfg.NumItems), true
	}
	if rng.Float64() < truth.Lambda[u] {
		z := stats.Categorical(rng, truth.UserInterest[u])
		if v, ok := genreDist[z].sample(rng); ok {
			return v, true
		}
		return rng.Intn(cfg.NumItems), true
	}
	x := stats.Categorical(rng, prevalence[d])
	if v, ok := eventDist[x].sample(rng); ok {
		return v, true
	}
	return rng.Intn(cfg.NumItems), true
}
