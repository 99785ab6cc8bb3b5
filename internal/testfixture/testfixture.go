// Package testfixture trains the small bundles the serving tests share:
// the 6-user / 3-interval / 12-item TTCAM behind the server, shard and
// root door tests, its variants, and the saved bundle the cmd tests
// boot their binaries from. Only tests import it; no binary may link it
// (TestNotLinkedIntoBinaries).
package testfixture

import (
	"fmt"
	"path/filepath"
	"testing"

	"tcam/internal/core"
	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/index"
	"tcam/internal/model/tcam"
)

// Data builds the fixture interactions over 3 intervals: in interval t
// user u rates item (2u+t) mod items and everyone rates item 4t mod
// items.
func Data(users, items int) *cuboid.Cuboid {
	b := cuboid.NewBuilder(users, 3, items)
	for u := 0; u < users; u++ {
		for t := 0; t < 3; t++ {
			b.MustAdd(u, t, (u*2+t)%items, 1)
			b.MustAdd(u, t, (t*4)%items, 1)
		}
	}
	return b.Build()
}

// BundleOf trains a K1 = 4 model for 15 iterations on data, whose
// intervals lie on the grid {Origin: 100, Length: 10}, and names its
// users user-0… and items item-0…. k2 == 0 trains an ITCAM, otherwise a
// TTCAM with k2 time topics; background > 0 adds TTCAM's background
// pseudo-topic.
func BundleOf(tb testing.TB, data *cuboid.Cuboid, k2 int, background float64) *index.Bundle {
	tb.Helper()
	cfg := tcam.DefaultConfig()
	cfg.K1, cfg.K2, cfg.MaxIters, cfg.Background = 4, k2, 15, background
	m, _, err := tcam.Train(data, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	grid := dataset.TimeGrid{Origin: 100, Length: 10, Num: data.NumIntervals()}
	return index.New(m, grid, numbered("user", data.NumUsers()), numbered("item", data.NumItems()))
}

// Bundle is BundleOf(Data(users, items)) as a TTCAM with 3 time topics.
func Bundle(tb testing.TB, users, items int) *index.Bundle {
	tb.Helper()
	return BundleOf(tb, Data(users, items), 3, 0)
}

// Serving is Bundle(6, 12) with two items renamed to ids that only
// survive exactly one percent-decode ("c++" → "c  ", "100%41" → "100A"
// under a second).
func Serving(tb testing.TB) *index.Bundle {
	tb.Helper()
	b := Bundle(tb, 6, 12)
	b.Items[4], b.Items[9] = "c++", "100%41"
	return b
}

// Saved trains a weighted TTCAM on a log in which each of user0… rates
// item-<day> on every day 0…days−1, saves the bundle under tb.TempDir()
// and returns its path.
func Saved(tb testing.TB, users, days int) string {
	tb.Helper()
	log := dataset.New()
	for day := 0; day < days; day++ {
		for u := 0; u < users; u++ {
			if err := log.Add(fmt.Sprintf("user%d", u), fmt.Sprintf("item-%d", day), int64(day), 1); err != nil {
				tb.Fatal(err)
			}
		}
	}
	data, grid, err := log.Grid(1)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Train(core.WTTCAM, data, core.Options{K1: 3, K2: 3, MaxIters: 10})
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "b.tcam")
	if err := index.New(res.Model.(*tcam.Model), grid, log.Users.Names(), log.Items.Names()).Save(path); err != nil {
		tb.Fatal(err)
	}
	return path
}

// numbered returns prefix-0 … prefix-(n-1).
func numbered(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}
