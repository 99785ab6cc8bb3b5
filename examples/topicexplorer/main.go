// Topicexplorer: inspect what the two topic families learn, the
// qualitative analysis behind the paper's Tables 5–7 and Figure 2.
//
// On a Delicious-like tagging world it trains TT, TTCAM and W-TTCAM,
// locates the time-oriented topic matching the biggest ground-truth
// event, and prints each model's top tags — showing how the item
// weighting scheme pushes always-popular generic tags out and
// co-bursting event tags in. It then contrasts the temporal signatures
// of a time-oriented and a user-oriented topic.
//
// Run with:
//
//	go run ./examples/topicexplorer
package main

import (
	"fmt"
	"log"
	"strings"

	"tcam/internal/core"
	"tcam/internal/cuboid"
	"tcam/internal/datagen"
	"tcam/internal/model/plsa"
	"tcam/internal/model/tcam"
	"tcam/internal/weighting"
)

func main() {
	cfg := datagen.DefaultConfig(datagen.Delicious)
	cfg.NumUsers, cfg.NumItems, cfg.NumDays = 1000, 900, 180
	cfg.Genres, cfg.Events = 16, 24
	// Heavy always-popular tag pollution — the situation Figure 5 and
	// Table 5 illustrate, and what the item weighting scheme fixes.
	cfg.GenericPopularFrac = 0.03
	cfg.GenericShare = 0.5
	world := datagen.MustGenerate(cfg)
	data, _, err := world.Log.Grid(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %s world: %d taggers, %d tags, %d taggings\n\n",
		cfg.Profile, world.Log.NumUsers(), world.Log.NumItems(), world.Log.NumEvents())

	// The biggest ground-truth event (by distinct raters).
	st := cuboid.ComputeStats(data)
	clusterMass := map[int]int{}
	for v := 0; v < data.NumItems(); v++ {
		if x := world.Truth.EventCluster[v]; x >= 0 {
			clusterMass[x] += st.ItemUsers[v]
		}
	}
	event, best := -1, -1
	for x, mass := range clusterMass {
		if mass > best {
			event, best = x, mass
		}
	}
	fmt.Printf("biggest ground-truth event: e%02d (%d distinct-tagger endorsements)\n\n", event, best)

	// Table 5-style comparison: the matched time topic under three
	// models.
	opts := core.Options{K1: 20, K2: 20, MaxIters: 30, Seed: 1}
	ttRes, err := core.Train(core.TT, data, opts)
	if err != nil {
		log.Fatal(err)
	}
	ttModel := ttRes.Model.(*plsa.Model)
	show("TT", world, event, matchTopic(world, event, ttModel.Topic, ttModel.K()), ttModel.Topic)

	for _, m := range []core.Method{core.TTCAM, core.WTTCAM} {
		res, err := core.Train(m, data, opts)
		if err != nil {
			log.Fatal(err)
		}
		tm := res.Model.(*tcam.Model)
		show(string(m), world, event, matchTopic(world, event, tm.TimeTopic, tm.K2()), tm.TimeTopic)
	}

	// Figure 2-style signature contrast on the weighted model.
	wres, err := core.Train(core.WTTCAM, weighting.WeightCuboid(data), opts)
	if err != nil {
		log.Fatal(err)
	}
	wm := wres.Model.(*tcam.Model)
	fmt.Println("\ntemporal signatures (normalized per-interval activity of each topic's top tags):")
	tSeries := activity(data, wm.TimeTopic(matchTopic(world, event, wm.TimeTopic, wm.K2())))
	uSeries := activity(data, wm.UserTopic(0))
	fmt.Printf("  time topic: %s\n", sparkline(tSeries))
	fmt.Printf("  user topic: %s\n", sparkline(uSeries))
}

// matchTopic finds the topic placing the most mass on the event's tags.
func matchTopic(world *datagen.World, event int, topicOf func(int) []float64, k int) int {
	bestTopic, bestMass := 0, -1.0
	for x := 0; x < k; x++ {
		var mass float64
		for v, p := range topicOf(x) {
			if world.Truth.EventCluster[v] == event {
				mass += p
			}
		}
		if mass > bestMass {
			bestTopic, bestMass = x, mass
		}
	}
	return bestTopic
}

// show prints a model's matched topic with class annotations.
func show(name string, world *datagen.World, event, topic int, topicOf func(int) []float64) {
	weights := topicOf(topic)
	type pair struct {
		v int
		p float64
	}
	var top []pair
	for v, p := range weights {
		top = append(top, pair{v, p})
	}
	for i := 0; i < 8; i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].p > top[i].p {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	fmt.Printf("%-8s matched time topic #%d:\n", name, topic)
	hits := 0
	for _, e := range top[:8] {
		class := "stable"
		switch {
		case world.Truth.GenericPopular[e.v]:
			class = "GENERIC"
		case world.Truth.EventCluster[e.v] == event:
			class = "event✓"
			hits++
		case world.Truth.EventCluster[e.v] >= 0:
			class = "other-event"
		}
		fmt.Printf("    %-22s %-12s %.4f\n", world.Log.ItemID(e.v), class, e.p)
	}
	fmt.Printf("    → burst purity %d/8\n\n", hits)
}

func activity(data *cuboid.Cuboid, weights []float64) []float64 {
	type pair struct {
		v int
		p float64
	}
	var top []pair
	for v, p := range weights {
		top = append(top, pair{v, p})
	}
	for i := 0; i < 10 && i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].p > top[i].p {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	series := make([]float64, data.NumIntervals())
	for i := 0; i < 10 && i < len(top); i++ {
		for t, x := range cuboid.ItemFrequencySeries(data, top[i].v) {
			series[t] += x
		}
	}
	return cuboid.NormalizeSeries(series)
}

// sparkline renders a series as unicode block characters.
func sparkline(series []float64) string {
	blocks := []rune(" ▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, x := range series {
		idx := int(x * float64(len(blocks)-1))
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
