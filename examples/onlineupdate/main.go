// Onlineupdate: the incremental-deployment extension. A TCAM trained on
// history cannot know the temporal context of an interval that opens
// *after* training — but its time-oriented topics are shared across
// intervals, so the context of a fresh interval can be fit from its
// first ratings alone with a partial EM over θ' (everything else
// frozen). This is the online counterpart of the paper's future-work
// direction on evolving contexts.
//
// The example trains W-TTCAM on the first 80% of a Digg-like timeline,
// streams the held-out days in, refits the new interval's context from
// the accumulating ratings, and shows the recommendations locking onto
// the new events — without retraining.
//
// Run with:
//
//	go run ./examples/onlineupdate
package main

import (
	"fmt"
	"log"
	"sort"

	"tcam/internal/datagen"
	"tcam/internal/dataset"
	"tcam/internal/model/tcam"
	"tcam/internal/weighting"
)

func main() {
	cfg := datagen.DefaultConfig(datagen.Digg)
	cfg.NumUsers, cfg.NumItems, cfg.NumDays = 800, 600, 75
	cfg.Genres, cfg.Events = 16, 25
	world := datagen.MustGenerate(cfg)

	// History = days [0, cutover); the remaining days arrive online.
	const intervalLen, cutoverDay = 3, 66
	history := dataset.New()
	var futureEvents []futureEvent
	for _, e := range world.Log.Events() {
		userID := world.Log.UserID(e.User)
		itemID := world.Log.ItemID(e.Item)
		if e.Time < cutoverDay {
			if err := history.Add(userID, itemID, e.Time, e.Score); err != nil {
				log.Fatal(err)
			}
		} else {
			futureEvents = append(futureEvents, futureEvent{item: e.Item, day: e.Time})
		}
	}
	sort.SliceStable(futureEvents, func(i, j int) bool { return futureEvents[i].day < futureEvents[j].day })

	data, _, err := history.Grid(intervalLen)
	if err != nil {
		log.Fatal(err)
	}
	tcfg := tcam.DefaultConfig()
	tcfg.K1, tcfg.K2, tcfg.MaxIters = 24, 20, 30
	tcfg.Label = "W-TTCAM"
	model, _, err := tcam.Train(weighting.WeightCuboid(data), tcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on days [0,%d): %d ratings, %d intervals\n", cutoverDay, data.NNZ(), data.NumIntervals())
	fmt.Println("(events whose bursts straddle the cutover are partially known; their")
	fmt.Println(" items are in the topic vocabulary, so the fresh context can find them)")
	fmt.Println()

	// Online phase: accumulate the new interval's ratings and refit its
	// temporal context after each batch, with the iterations the
	// streaming updater publishes (tcam.FitIters).
	counts := make([]float64, world.Log.NumItems())
	batchEnd := int64(cutoverDay)
	i := 0
	for _, horizon := range []int64{69, 72, 75} {
		for ; i < len(futureEvents) && futureEvents[i].day < horizon; i++ {
			counts[futureEvents[i].item]++
		}
		var items []int
		var weights []float64
		for v, c := range counts {
			if c > 0 {
				items, weights = append(items, v), append(weights, c)
			}
		}
		theta := model.FitNewInterval(items, weights, model.NumItems(), tcam.FitIters)
		top := topTopics(theta, 3)
		fmt.Printf("after streaming days [%d,%d): %d distinct new items\n", batchEnd, horizon, len(items))
		fmt.Printf("  fitted temporal context: top time-topics %v\n", top)
		fmt.Printf("  context now recommends: %v\n\n", contextTopItems(world, model, theta, 3))
	}

	// Ground truth check: which events actually peak in the streamed
	// window?
	fmt.Println("ground-truth events peaking in the streamed window:")
	for x, day := range world.Truth.PeakDay {
		if day >= cutoverDay {
			fmt.Printf("  e%02d peaks on day %d\n", x, day)
		}
	}
}

type futureEvent struct {
	item int
	day  int64
}

// topTopics returns the indices of the n largest entries.
func topTopics(theta []float64, n int) []int {
	idx := make([]int, len(theta))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return theta[idx[a]] > theta[idx[b]] })
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}

// contextTopItems ranks items by the fitted temporal context alone.
func contextTopItems(world *datagen.World, m *tcam.Model, theta []float64, n int) []string {
	scores := make([]float64, m.NumItems())
	for x, w := range theta {
		if w <= 0 {
			continue
		}
		row := m.TimeTopic(x)
		for v := range scores {
			scores[v] += w * row[v]
		}
	}
	idx := topTopics(scores, n)
	out := make([]string, 0, n)
	for _, v := range idx {
		out = append(out, world.Log.ItemID(v))
	}
	return out
}
