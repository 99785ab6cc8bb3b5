package index

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/model/tcam"
	"tcam/internal/topk"
)

// bootData is the 6-user × 3-interval × 12-item cuboid the test models
// are trained on.
func bootData() *cuboid.Cuboid {
	b := cuboid.NewBuilder(6, 3, 12)
	for u := 0; u < 6; u++ {
		for t := 0; t < 3; t++ {
			b.MustAdd(u, t, (u*2+t)%12, 1)
			b.MustAdd(u, t, (u*2+t+5)%12, 1)
		}
	}
	return b.Build()
}

func trainedModels(tb testing.TB) (itcam, ttcam *tcam.Model, _ dataset.TimeGrid, _, _ []string) {
	tb.Helper()
	data := bootData()
	icfg := tcam.DefaultITCAMConfig()
	icfg.K1, icfg.MaxIters = 4, 10
	im, _, err := tcam.Train(data, icfg)
	if err != nil {
		tb.Fatal(err)
	}
	tcfg := tcam.DefaultConfig()
	tcfg.K1, tcfg.K2, tcfg.MaxIters = 4, 3, 10
	tm, _, err := tcam.Train(data, tcfg)
	if err != nil {
		tb.Fatal(err)
	}
	users := make([]string, 6)
	for i := range users {
		users[i] = fmt.Sprintf("u%d", i)
	}
	items := make([]string, 12)
	for i := range items {
		items[i] = fmt.Sprintf("v%d", i)
	}
	grid := dataset.TimeGrid{Origin: 0, Length: 10, Num: 3}
	return im, tm, grid, users, items
}

func TestBundleRoundtripTTCAM(t *testing.T) {
	_, tm, grid, users, items := trainedModels(t)
	b := New(tm, grid, users, items)
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != KindTTCAM {
		t.Fatalf("roundtrip kind = %v", got.Kind())
	}
	// Scores must survive the roundtrip bit-for-bit.
	for u := 0; u < 6; u++ {
		for v := 0; v < 12; v += 3 {
			if a, bb := tm.Score(u, 1, v), got.Model.Score(u, 1, v); a != bb {
				t.Fatalf("score drift after roundtrip at (%d,%d): %v vs %v", u, v, a, bb)
			}
		}
	}
	if got.Grid != grid || len(got.Users) != 6 || got.Items[3] != "v3" {
		t.Error("metadata mangled in roundtrip")
	}
}

func TestBundleRoundtripITCAM(t *testing.T) {
	im, _, grid, users, items := trainedModels(t)
	b := New(im, grid, users, items)
	path := filepath.Join(t.TempDir(), "bundle.gob")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != KindITCAM {
		t.Fatalf("roundtrip kind = %v", got.Kind())
	}
	if a, bb := im.Score(2, 2, 7), got.Model.Score(2, 2, 7); math.Abs(a-bb) > 0 {
		t.Errorf("score drift: %v vs %v", a, bb)
	}
}

func TestBundleIndexMatchesBruteForce(t *testing.T) {
	_, tm, grid, users, items := trainedModels(t)
	b := New(tm, grid, users, items)
	ix := b.BuildIndex()
	ta, _ := ix.Query(tm, 1, 1, 5, nil)
	bf, _ := topk.BruteForce(tm, 1, 1, 5, nil)
	for i := range ta {
		if ta[i].Item != bf[i].Item {
			t.Fatalf("bundle index disagrees with brute force at rank %d", i)
		}
	}
}

func TestValidateCatchesMismatches(t *testing.T) {
	_, tm, grid, users, items := trainedModels(t)
	tests := []struct {
		name string
		mod  func(*Bundle)
	}{
		{"missing model", func(b *Bundle) { b.Model = nil }},
		{"item count", func(b *Bundle) { b.Items = b.Items[:3] }},
		{"user count", func(b *Bundle) { b.Users = append(b.Users, "extra") }},
		{"grid intervals", func(b *Bundle) { b.Grid.Num = 99 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := New(tm, grid, append([]string(nil), users...), append([]string(nil), items...))
			tt.mod(b)
			if err := b.Validate(); err == nil {
				t.Error("Validate accepted a broken bundle")
			}
			var buf bytes.Buffer
			if err := b.Write(&buf); err == nil {
				t.Error("Write accepted a broken bundle")
			}
		})
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a bundle"))); err == nil {
		t.Error("Read accepted garbage")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("Load accepted a missing file")
	}
}

func TestModelIOValidation(t *testing.T) {
	// Truncated model payloads must fail cleanly.
	im, tm, _, _, _ := trainedModels(t)
	for _, m := range []*tcam.Model{im, tm} {
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := tcam.Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
			t.Errorf("tcam.Read accepted a truncated %s stream", m.Name())
		}
	}
}
