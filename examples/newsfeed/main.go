// Newsfeed: temporal recommendation on a Digg-like social news world.
//
// This example generates a synthetic news aggregator (short-lived
// stories, bursty events, mostly context-driven users), trains the
// paper's W-TTCAM at a 3-day interval granularity, and then
//
//  1. shows how the same user's feed changes across the timeline,
//  2. contrasts the learned influence-probability distribution with the
//     generator's ground truth (the paper's Figure 11 analysis), and
//  3. demonstrates the Threshold Algorithm's scan savings against a
//     brute-force ranking of the whole catalog.
//
// Run with:
//
//	go run ./examples/newsfeed
package main

import (
	"fmt"
	"log"

	"tcam/internal/datagen"
	"tcam/internal/model/tcam"
	"tcam/internal/stats"
	"tcam/internal/topk"
	"tcam/internal/weighting"
)

func main() {
	cfg := datagen.DefaultConfig(datagen.Digg)
	cfg.NumUsers, cfg.NumItems, cfg.NumDays = 800, 600, 60
	cfg.Genres, cfg.Events = 16, 30
	world := datagen.MustGenerate(cfg)
	fmt.Printf("generated %s world: %d users, %d stories, %d votes over %d days\n",
		cfg.Profile, world.Log.NumUsers(), world.Log.NumItems(), world.Log.NumEvents(), cfg.NumDays)

	// Grid at the paper's optimal 3-day interval, weight per Section
	// 3.3, and train TTCAM.
	data, grid, err := world.Log.Grid(3)
	if err != nil {
		log.Fatal(err)
	}
	tcfg := tcam.DefaultConfig()
	tcfg.K1, tcfg.K2 = 24, 16
	tcfg.MaxIters = 30
	tcfg.Label = "W-TTCAM"
	model, tstats, err := tcam.Train(weighting.WeightCuboid(data), tcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %s in %d EM iterations (converged=%v)\n\n",
		model.Name(), tstats.Iterations(), tstats.Converged)

	// 1. A context-driven user's feed across the timeline.
	user := mostTemporalUser(model)
	fmt.Printf("feed of %s (λu = %.2f) across the timeline:\n", world.Log.UserID(user), model.Lambda(user))
	index := topk.BuildIndex(model)
	for _, day := range []int64{6, 30, 54} {
		t := grid.IntervalOf(day)
		top, _ := index.Query(model, user, t, 3, nil)
		fmt.Printf("  day %2d:", day)
		for _, r := range top {
			fmt.Printf("  %s", world.Log.ItemID(r.Item))
		}
		fmt.Println()
	}

	// 2. Influence analysis (Figure 11): on a news site the temporal
	// context dominates.
	learned := make([]float64, model.NumUsers())
	for u := range learned {
		learned[u] = model.Lambda(u)
	}
	fmt.Printf("\ninfluence probabilities: mean λ learned %.3f vs ground truth %.3f\n",
		stats.Mean(learned), stats.Mean(world.Truth.Lambda))
	above := 0
	for _, l := range learned {
		if 1-l > 0.5 {
			above++
		}
	}
	fmt.Printf("users with temporal influence > 0.5: %d of %d (%.0f%%)\n",
		above, len(learned), 100*float64(above)/float64(len(learned)))

	// 3. TA vs brute force on the same query.
	t := grid.IntervalOf(30)
	taTop, taStats := index.Query(model, user, t, 10, nil)
	bfTop, bfStats := topk.BruteForce(model, user, t, 10, nil)
	same := len(taTop) == len(bfTop)
	for i := range taTop {
		if taTop[i].Item != bfTop[i].Item {
			same = false
		}
	}
	fmt.Printf("\nThreshold Algorithm: examined %d of %d items (brute force: %d); identical top-10: %v\n",
		taStats.ItemsExamined, model.NumItems(), bfStats.ItemsExamined, same)
}

// mostTemporalUser returns the user with the lowest λu — the strongest
// trend-follower.
func mostTemporalUser(m *tcam.Model) int {
	best, arg := 2.0, 0
	for u := 0; u < m.NumUsers(); u++ {
		if l := m.Lambda(u); l < best {
			best, arg = l, u
		}
	}
	return arg
}
