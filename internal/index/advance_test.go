package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/model/tcam"
)

// streamState is what an updater accumulates since boot: vocabularies
// grown in arrival order, the grid, the stream cuboid.
type streamState struct {
	users, items []string
	grid         dataset.TimeGrid
	stream       *cuboid.Cuboid
}

func newStreamState(b *Bundle) *streamState {
	return &streamState{
		users: append([]string(nil), b.Users...), items: append([]string(nil), b.Items...),
		grid: b.Grid, stream: cuboid.NewBuilder(len(b.Users), b.Grid.Num, len(b.Items)).Build(),
	}
}

// apply extends the state by cells (u, t, v, score); indices past a
// dimension's end grow it.
func (s *streamState) apply(tb testing.TB, cells ...[4]int) {
	tb.Helper()
	for _, c := range cells {
		for len(s.users) <= c[0] {
			s.users = append(s.users, fmt.Sprintf("late%d", len(s.users)))
		}
		for len(s.items) <= c[2] {
			s.items = append(s.items, fmt.Sprintf("fresh%d", len(s.items)))
		}
		s.grid.Num = max(s.grid.Num, c[1]+1)
	}
	d := cuboid.NewDelta(len(s.users), s.grid.Num, len(s.items))
	for _, c := range cells {
		d.MustAdd(c[0], c[1], c[2], float64(c[3]))
	}
	next, err := s.stream.ApplyDelta(d)
	if err != nil {
		tb.Fatal(err)
	}
	s.stream = next
}

func (s *streamState) advanceFrom(tb testing.TB, b *Bundle, prev *Advanced) *Advanced {
	tb.Helper()
	adv, err := b.AdvanceFrom(prev, s.stream, s.grid, s.users, s.items)
	if err != nil {
		tb.Fatal(err)
	}
	return adv
}

func bundleBytes(tb testing.TB, b *Bundle) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func bootBundles(tb testing.TB) map[string]*Bundle {
	im, tm, grid, users, items := trainedModels(tb)
	cfg := tcam.DefaultConfig()
	cfg.K1, cfg.K2, cfg.MaxIters, cfg.Background = 4, 3, 10, 0.1
	bm, _, err := tcam.Train(bootData(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*Bundle{
		"ITCAM": New(im, grid, users, items), "TTCAM": New(tm, grid, users, items), "TTCAM+background": New(bm, grid, users, items),
	}
}

// TestAdvanceFromEqualsAdvance: over a random stream — new users, new
// items, new intervals, late cells in closed intervals, re-rated cells —
// the derivation that inherits from the previous one writes the bytes
// of the derivation from nothing, step after step.
func TestAdvanceFromEqualsAdvance(t *testing.T) {
	for name, boot := range bootBundles(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			s := newStreamState(boot)
			var prev *Advanced
			kept := 0
			for step := 0; step < 40; step++ {
				var cells [][4]int
				for i := 0; i <= rng.Intn(3); i++ {
					cells = append(cells, [4]int{
						rng.Intn(len(s.users) + 1), // sometimes a new user
						rng.Intn(s.grid.Num + 1 - rng.Intn(2)),
						rng.Intn(len(s.items) + rng.Intn(2)),
						1 + rng.Intn(3),
					})
				}
				s.apply(t, cells...)
				prev = s.advanceFrom(t, boot, prev)
				if !bytes.Equal(bundleBytes(t, prev.Bundle), bundleBytes(t, s.advanceFrom(t, boot, nil).Bundle)) {
					t.Fatalf("step %d (cells %v): inheriting derivation differs from the derivation from nothing", step, cells)
				}
				kept += prev.ContextsKept + prev.UsersKept
			}
			if kept == 0 {
				t.Error("40 derivations inherited nothing: the test does not reach the carried path")
			}
		})
	}
}

// TestAdvanceFromAcrossStride: a stream of four new items a step
// outgrows the room Grow leaves behind φ, φ′ and the background (64
// items at this size) and has them laid out anew at steps 0, 17 and 34.
// In between, a derivation shares the previous one's slabs and
// fold-in's transposes of them, and at every step it writes the bytes
// of the derivation from nothing. The last bundle is then saved and
// reloaded — stride back to V — and both copies, as boot bundles of a
// further stream, derive the same bytes again.
func TestAdvanceFromAcrossStride(t *testing.T) {
	for name, boot := range bootBundles(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(6))
			s := newStreamState(boot)
			var prev *Advanced
			for step := 0; step < 45; step++ {
				var cells [][4]int
				for i := 0; i < 4; i++ { // each a new item; every third step a new user, every tenth an interval
					cells = append(cells, [4]int{rng.Intn(len(s.users) + 1 - min(1, step%3)), s.grid.Num - min(1, step%10), len(s.items) + i, 1 + rng.Intn(3)})
				}
				s.apply(t, cells...)
				adv := s.advanceFrom(t, boot, prev)
				if !bytes.Equal(bundleBytes(t, adv.Bundle), bundleBytes(t, s.advanceFrom(t, boot, nil).Bundle)) {
					t.Fatalf("step %d: inheriting derivation differs from the derivation from nothing", step)
				}
				if relaid := step%17 == 0; adv.SlabsShared == relaid {
					t.Errorf("step %d (%d items): slabs shared with the previous derivation: %t", step, len(s.items), adv.SlabsShared)
				}
				if adv.TransposesShared && !adv.SlabsShared {
					t.Errorf("step %d: transposes outlived the slabs they were made from", step)
				}
				if prev != nil && prev.TransposesShared && adv.SlabsShared && adv.UsersFolded > 0 && !adv.TransposesShared {
					t.Errorf("step %d: fold-in transposed shared slabs again", step)
				}
				prev = adv
			}

			var buf bytes.Buffer
			if err := prev.Bundle.Write(&buf); err != nil {
				t.Fatal(err)
			}
			reloaded, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var fromMemory, fromDisk *Advanced
			sm, sd := newStreamState(prev.Bundle), newStreamState(reloaded)
			for step := 0; step < 20; step++ {
				cells := [][4]int{
					{rng.Intn(len(sm.users) + 1), sm.grid.Num - 1 + step%2, len(sm.items), 2},
					{rng.Intn(len(sm.users)), sm.grid.Num - 1, len(sm.items) + 4, 1},
				}
				sm.apply(t, cells...)
				sd.apply(t, cells...)
				fromMemory = sm.advanceFrom(t, prev.Bundle, fromMemory)
				fromDisk = sd.advanceFrom(t, reloaded, fromDisk)
				if !bytes.Equal(bundleBytes(t, fromMemory.Bundle), bundleBytes(t, fromDisk.Bundle)) {
					t.Fatalf("step %d after reload: the saved bundle and the one kept in memory derive different bundles", step)
				}
				if !bytes.Equal(bundleBytes(t, fromDisk.Bundle), bundleBytes(t, sd.advanceFrom(t, reloaded, nil).Bundle)) {
					t.Fatalf("step %d after reload: inheriting derivation differs from the derivation from nothing", step)
				}
			}
		})
	}
}

// TestAdvanceFromInherits pins what is taken over: a delta confined to
// one user in the open interval refits that interval's θ′ and re-folds
// the users with cells in it, nothing else; a new item refits every
// item-context row (its width changed) but no topic-mixture row; a
// previous derivation from another boot bundle, or over an
// unrelated stream, is no authority.
func TestAdvanceFromInherits(t *testing.T) {
	for name, boot := range bootBundles(t) {
		t.Run(name, func(t *testing.T) {
			s := newStreamState(boot)
			// Users 6 and 7 are stream-born; intervals 3 and 4 stream-opened.
			s.apply(t, [4]int{6, 3, 2, 1}, [4]int{7, 3, 5, 2}, [4]int{7, 4, 1, 1}, [4]int{0, 4, 2, 1})
			first := s.advanceFrom(t, boot, nil)
			if first.ContextsKept+first.UsersKept != 0 || first.ContextsFit != 2 || first.UsersFolded != 2 {
				t.Fatalf("derivation from nothing reports %+v", first)
			}

			s.apply(t, [4]int{7, 4, 3, 1}) // user 7, open interval 4, known item
			second := s.advanceFrom(t, boot, first)
			if second.ContextsKept != 1 || second.ContextsFit != 1 || second.UsersKept != 1 || second.UsersFolded != 1 {
				t.Errorf("one-user delta in the open interval: %d/%d contexts kept/fit, %d/%d users kept/folded, want 1/1 and 1/1",
					second.ContextsKept, second.ContextsFit, second.UsersKept, second.UsersFolded)
			}

			s.apply(t, [4]int{1, 2, 12, 1}) // boot user, boot interval, brand-new item 12
			third := s.advanceFrom(t, boot, second)
			wantKept, wantUsers := 2, 2
			if name == "ITCAM" {
				wantKept, wantUsers = 0, 0 // item contexts are catalog-wide rows
			}
			if third.ContextsKept != wantKept || third.UsersKept != wantUsers {
				t.Errorf("new item: kept %d contexts and %d users, want %d and %d", third.ContextsKept, third.UsersKept, wantKept, wantUsers)
			}

			other := *boot
			if adv := s.advanceFrom(t, &other, third); adv.ContextsKept+adv.UsersKept != 0 {
				t.Errorf("another boot bundle: inherited %d contexts and %d users", adv.ContextsKept, adv.UsersKept)
			}

			// A previous derivation over a stream this one does not extend:
			// whatever matches is taken, and the bytes are still Advance's.
			u := newStreamState(boot)
			u.apply(t, [4]int{6, 3, 2, 1}, [4]int{7, 3, 9, 2}, [4]int{8, 4, 1, 3})
			unrelated := u.advanceFrom(t, boot, nil)
			got := s.advanceFrom(t, boot, unrelated)
			if !bytes.Equal(bundleBytes(t, got.Bundle), bundleBytes(t, third.Bundle)) {
				t.Error("inheriting from an unrelated stream's derivation changed the bundle")
			}
		})
	}
}

// depthBoot trains a model whose boot intervals each have their own
// trend: 240 users × 6 intervals × 1 200 items, the first 600 items in
// six interest groups the users split over, the last 600 in six trend
// groups of which interval t favours group t, popularity inside a group
// falling off like 1/rank. Every boot θ′ row comes out peaked. idle more
// users follow the 240 with no cells at all. cfg names the kind; its
// K1, K2 (when it has time topics), MaxIters and Tol are set here.
func depthBoot(tb testing.TB, cfg tcam.Config, idle int) *Bundle {
	tb.Helper()
	const users, intervals, items, group = 240, 6, 1200, 100
	rng := rand.New(rand.NewSource(7))
	b := cuboid.NewBuilder(users+idle, intervals, items)
	for u := 0; u < users; u++ {
		for t := 0; t < intervals; t++ {
			for i := 0; i < 4; i++ {
				b.MustAdd(u, t, (u%6)*group+zipfRank(rng, group), 1)
				b.MustAdd(u, t, 600+t*group+zipfRank(rng, group), 1)
			}
		}
	}
	cfg.K1, cfg.MaxIters, cfg.Tol = 6, 30, 0
	if cfg.K2 > 0 {
		cfg.K2 = 6
	}
	m, _, err := tcam.Train(b.Build(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	return New(m, dataset.TimeGrid{Origin: 0, Length: 10, Num: intervals}, names("u", users+idle), names("v", items))
}

// zipfRank draws a rank in [0, n) with probability ∝ 1/(rank+1).
func zipfRank(rng *rand.Rand, n int) int {
	for {
		if r := rng.Intn(n); rng.Float64() < 1/float64(r+1) {
			return r
		}
	}
}

// TestLiveIntervalDepth is the count, not the timing, behind "a publish
// costs what its batch changed": the Threshold Algorithm must not scan
// deeper at a stream-opened interval than at a trained one. A stream
// opens three intervals with events from boot users, appended users and
// appended items, spread over every trend at once, so the few-round
// partial fit leaves each new θ′ row flat — the shape that made K2
// separately bounded time-topic lists pop entries by the thousand. With
// one collapsed context list per interval the live interval's mean
// Stats.ListPops stays within twice the last boot interval's, for the
// same users and k.
func TestLiveIntervalDepth(t *testing.T) {
	boot := depthBoot(t, tcam.DefaultConfig(), 0)
	rng := rand.New(rand.NewSource(8))
	s := newStreamState(boot)
	var adv *Advanced
	for opened := 0; opened < 3; opened++ {
		at := boot.Grid.Num + opened
		for batch := 0; batch < 2; batch++ {
			var cells [][4]int
			for i := 0; i < 48; i++ {
				u, v := rng.Intn(len(boot.Users)), 600+rng.Intn(600)
				if i%4 == 0 {
					u = len(boot.Users) + rng.Intn(8*(opened+1)) // stream-born users
				}
				if i%12 == 0 {
					v = len(boot.Items) + rng.Intn(4*(opened+1)) // stream-born items
				}
				cells = append(cells, [4]int{u, at, v, 1})
			}
			s.apply(t, cells...)
			adv = s.advanceFrom(t, boot, adv)
		}
	}
	b := adv.Bundle
	if b.Grid.Num != boot.Grid.Num+3 || len(b.Users) <= len(boot.Users) || len(b.Items) <= len(boot.Items) {
		t.Fatalf("stream left %d intervals, %d users, %d items: nothing grew", b.Grid.Num, len(b.Users), len(b.Items))
	}
	sr := b.BuildIndex().NewSearcher()
	meanPops := func(at int) float64 {
		pops := 0
		for u := 0; u < 60; u++ {
			_, st := sr.Query(b.Scorer(), u, at, 10, nil)
			pops += st.ListPops
		}
		return float64(pops) / 60
	}
	lastBoot, live := meanPops(boot.Grid.Num-1), meanPops(b.Grid.Num-1)
	t.Logf("mean list pops: last boot interval %.1f, live interval %.1f", lastBoot, live)
	if live > 2*lastBoot {
		t.Errorf("TA pops %.1f list entries a query at the live interval, more than twice the %.1f at the last boot interval", live, lastBoot)
	}
}

// TestFlatUserDepth is the count behind the floor list: a user with no
// training cells keeps a flat θu, whose K1 weights tie, and TA must not
// scan deeper for them than for a trained user. Against K1 separately
// bounded user-topic lists such a query popped entries by the thousand;
// the floor list carries the weight the user topics share, so at the
// same interval and k a flat user's Stats.ListPops stays within twice
// the trained users' mean, on both kinds.
func TestFlatUserDepth(t *testing.T) {
	const trained = 240 // depthBoot's users; user 240 has no cells
	for _, kind := range []struct {
		name string
		cfg  tcam.Config
	}{{"TTCAM", tcam.DefaultConfig()}, {"ITCAM", tcam.DefaultITCAMConfig()}} {
		t.Run(kind.name, func(t *testing.T) {
			b := depthBoot(t, kind.cfg, 1)
			sr := b.BuildIndex().NewSearcher()
			at := b.Grid.Num - 1
			pops := func(u int) float64 {
				_, st := sr.Query(b.Scorer(), u, at, 10, nil)
				return float64(st.ListPops)
			}
			var mean float64
			for u := 0; u < trained; u++ {
				mean += pops(u) / trained
			}
			flat := pops(trained)
			t.Logf("mean list pops: trained users %.1f, the user with no cells %.0f", mean, flat)
			if flat > 2*mean {
				t.Errorf("TA pops %.0f list entries for the user with no cells, more than twice the trained users' mean %.1f", flat, mean)
			}
		})
	}
}
