package core

import (
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/model/tcam"
)

// numUsers reads the user count off the concrete TCAM models (the
// Recommender interface intentionally has no NumUsers — only the TCAM
// family grows).
func numUsers(tb testing.TB, rec model.Recommender) int {
	tb.Helper()
	m, ok := rec.(*tcam.Model)
	if !ok {
		tb.Fatalf("not a TCAM model: %T", rec)
	}
	return m.NumUsers()
}

// grownWorld is smallWorld plus 5 new users (rows 20..24) with their
// own events, the shape FoldIn extends a trained model onto.
func grownWorld(tb testing.TB) *cuboid.Cuboid {
	tb.Helper()
	base := smallWorld(tb)
	d := cuboid.NewDelta(25, 4, 25)
	for u := 20; u < 25; u++ {
		for t := 0; t < 4; t++ {
			if err := d.Add(u, t, (u*3+t)%25, 1+float64((u+t)%3)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	grown, err := base.ApplyDelta(d)
	if err != nil {
		tb.Fatal(err)
	}
	return grown
}

// TestFoldInAllMethods: the TCAM family folds in the new users (old
// scores preserved bit-for-bit, new users scoreable); every baseline
// is rejected with a clear error.
func TestFoldInAllMethods(t *testing.T) {
	boot := smallWorld(t)
	grown := grownWorld(t)
	for _, m := range AllMethods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			res, err := Train(m, boot, fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			folded, err := FoldIn(m, res.Model, grown, fastOpts())
			isTCAM := m == ITCAM || m == WITCAM || m == TTCAM || m == WTTCAM
			if !isTCAM {
				if err == nil {
					t.Fatalf("FoldIn(%s) accepted a non-TCAM method", m)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := numUsers(t, folded); n != 25 {
				t.Fatalf("folded NumUsers = %d, want 25", n)
			}
			// Frozen base: existing users score exactly as before.
			for _, u := range []int{0, 7, 19} {
				if got, want := folded.Score(u, 2, 3), res.Model.Score(u, 2, 3); got != want {
					t.Errorf("user %d score changed across fold-in: %v != %v", u, got, want)
				}
			}
			// The input model is not mutated.
			if n := numUsers(t, res.Model); n != 20 {
				t.Errorf("FoldIn mutated its input: NumUsers = %d", n)
			}
			// New users produce usable, finite scores.
			if s := folded.Score(22, 1, (22*3+1)%25); s <= 0 {
				t.Errorf("folded-in user scores %v, want > 0", s)
			}
		})
	}
}

// TestFoldInTypeMismatch: handing FoldIn a model from another method is
// an error, not a panic or silent garbage.
func TestFoldInTypeMismatch(t *testing.T) {
	boot := smallWorld(t)
	grown := grownWorld(t)
	res, err := Train(TTCAM, boot, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FoldIn(ITCAM, res.Model, grown, fastOpts()); err == nil {
		t.Error("FoldIn(ITCAM) accepted a TTCAM model")
	}
}
