package topk_test

import (
	"fmt"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/index"
	"tcam/internal/model/tcam"
	"tcam/internal/topk"
)

// TestOneItemMajorTablePerGeneration: a folded TTCAM generation holds
// one f64 item-major table. Through a derivation that lays the table out
// with room and two publishes that keep it — each bringing a new item
// and folding a new user — the model's ItemTopics and the rows the
// served index confirms from are one storage, the same array in all
// three generations, and the index shares lists with its predecessor.
func TestOneItemMajorTablePerGeneration(t *testing.T) {
	const users, intervals, items = 8, 3, 16
	b := cuboid.NewBuilder(users, intervals, items)
	for u := 0; u < users; u++ {
		for at := 0; at < intervals; at++ {
			b.MustAdd(u, at, (u*3+at)%items, 1)
			b.MustAdd(u, at, (u*5+at+7)%items, 2)
		}
	}
	cfg := tcam.DefaultConfig()
	cfg.K1, cfg.K2, cfg.MaxIters = 4, 3, 10
	m, _, err := tcam.Train(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	boot := index.New(m, dataset.TimeGrid{Length: 10, Num: intervals}, names("u", users), names("v", items))
	ix := boot.BuildIndex()
	stream := cuboid.NewBuilder(users, intervals, items).Build()
	var adv *index.Advanced
	for publish := 1; publish <= 3; publish++ {
		d := cuboid.NewDelta(users+publish, intervals, items+publish)
		d.MustAdd(users+publish-1, intervals-1, items+publish-1, 1) // a new user on a new item
		d.MustAdd(users+publish-1, 0, publish, 2)
		if stream, err = stream.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		prev, prevIx := adv, ix
		adv, err = boot.AdvanceFrom(prev, stream, boot.Grid, names("u", users+publish), names("v", items+publish))
		if err != nil {
			t.Fatal(err)
		}
		ix = topk.BuildIndexFrom(prevIx, adv.Bundle.Scorer(), 0, items+publish)
		table := adv.Bundle.Model.ItemTopics()
		if adv.UsersFolded == 0 || &table[0] != &ix.ConfirmRows()[0] {
			t.Fatalf("publish %d: %d users folded; the model's table and the index's confirm rows are one storage: %t",
				publish, adv.UsersFolded, &table[0] == &ix.ConfirmRows()[0])
		}
		if publish == 1 {
			continue
		}
		if !adv.TableShared || &ix.ConfirmRows()[0] != &prevIx.ConfirmRows()[0] || ix.ListsShared() == 0 {
			t.Errorf("publish %d: table shared %t, confirm rows the previous generation's %t, %d lists shared; want all",
				publish, adv.TableShared, &ix.ConfirmRows()[0] == &prevIx.ConfirmRows()[0], ix.ListsShared())
		}
	}
}
