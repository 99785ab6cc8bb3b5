package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/dataset"
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

func (s *streamState) advanceFrom(tb testing.TB, b *Bundle, prev *Advanced, cfg AdvanceConfig) *Advanced {
	tb.Helper()
	adv, err := b.AdvanceFrom(prev, s.stream, s.grid, s.users, s.items, cfg)
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
	return map[string]*Bundle{"ITCAM": New(im, grid, users, items), "TTCAM": New(tm, grid, users, items)}
}

// TestAdvanceFromEqualsAdvance: over a random stream — new users, new
// items, new intervals, late cells in closed intervals, re-rated cells —
// the derivation that inherits from the previous one writes the bytes
// of the derivation from nothing, step after step.
func TestAdvanceFromEqualsAdvance(t *testing.T) {
	for name, boot := range bootBundles(t) {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultAdvanceConfig()
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
				prev = s.advanceFrom(t, boot, prev, cfg)
				if !bytes.Equal(bundleBytes(t, prev.Bundle), bundleBytes(t, s.advanceFrom(t, boot, nil, cfg).Bundle)) {
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

// TestAdvanceFromInherits pins what is taken over: a delta confined to
// one user in the open interval refits that interval's θ′ and re-folds
// the users with cells in it, nothing else; a new item refits every
// item-context row (its width changed) but no topic-mixture row; a
// previous derivation from another boot bundle or config, or over an
// unrelated stream, is no authority.
func TestAdvanceFromInherits(t *testing.T) {
	for name, boot := range bootBundles(t) {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultAdvanceConfig()
			s := newStreamState(boot)
			// Users 6 and 7 are stream-born; intervals 3 and 4 stream-opened.
			s.apply(t, [4]int{6, 3, 2, 1}, [4]int{7, 3, 5, 2}, [4]int{7, 4, 1, 1}, [4]int{0, 4, 2, 1})
			first := s.advanceFrom(t, boot, nil, cfg)
			if first.ContextsKept+first.UsersKept != 0 || first.ContextsFit != 2 || first.UsersFolded != 2 {
				t.Fatalf("derivation from nothing reports %+v", first)
			}

			s.apply(t, [4]int{7, 4, 3, 1}) // user 7, open interval 4, known item
			second := s.advanceFrom(t, boot, first, cfg)
			if second.ContextsKept != 1 || second.ContextsFit != 1 || second.UsersKept != 1 || second.UsersFolded != 1 {
				t.Errorf("one-user delta in the open interval: %d/%d contexts kept/fit, %d/%d users kept/folded, want 1/1 and 1/1",
					second.ContextsKept, second.ContextsFit, second.UsersKept, second.UsersFolded)
			}

			s.apply(t, [4]int{1, 2, 12, 1}) // boot user, boot interval, brand-new item 12
			third := s.advanceFrom(t, boot, second, cfg)
			wantKept, wantUsers := 2, 2
			if name == "ITCAM" {
				wantKept, wantUsers = 0, 0 // item contexts are catalog-wide rows
			}
			if third.ContextsKept != wantKept || third.UsersKept != wantUsers {
				t.Errorf("new item: kept %d contexts and %d users, want %d and %d", third.ContextsKept, third.UsersKept, wantKept, wantUsers)
			}

			other := *boot
			otherCfg := cfg
			otherCfg.FoldIters++
			for label, adv := range map[string]*Advanced{
				"another boot bundle": s.advanceFrom(t, &other, third, cfg),
				"another config":      s.advanceFrom(t, boot, third, otherCfg),
			} {
				if adv.ContextsKept+adv.UsersKept != 0 {
					t.Errorf("%s: inherited %d contexts and %d users", label, adv.ContextsKept, adv.UsersKept)
				}
			}

			// A previous derivation over a stream this one does not extend:
			// whatever matches is taken, and the bytes are still Advance's.
			u := newStreamState(boot)
			u.apply(t, [4]int{6, 3, 2, 1}, [4]int{7, 3, 9, 2}, [4]int{8, 4, 1, 3})
			unrelated := u.advanceFrom(t, boot, nil, cfg)
			got := s.advanceFrom(t, boot, unrelated, cfg)
			if !bytes.Equal(bundleBytes(t, got.Bundle), bundleBytes(t, third.Bundle)) {
				t.Error("inheriting from an unrelated stream's derivation changed the bundle")
			}
		})
	}
}
