package tcam

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"runtime"
	"testing"

	"tcam/internal/cuboid"
)

// TestModelHoldsOneItemIndexedCopy: the table is a model's only copy of
// its item-indexed parameters. A decoded model, a trained one and a
// grown one each retain at most 1.1× their table's bytes on the heap —
// no topic-major slab, no decoded wire row and no interval-major item
// context beside it; the rest is θ, TTCAM's θ′ and λ. The TTCAM has a
// background and grows past its stride; the ITCAM grows by an interval.
func TestModelHoldsOneItemIndexedCopy(t *testing.T) {
	const V, K1, users = 20000, 40, 200
	for _, c := range []struct {
		name          string
		k2, intervals int
		background    float64
	}{
		{"TTCAM", 24, 10, 0.1},
		{"ITCAM", 0, 24, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			lambda := make([]float64, users)
			for u := range lambda {
				lambda[u] = 0.5
			}
			w := wire{
				Label: c.name, NumUsers: users, NumIntervals: c.intervals, NumItems: V, K1: K1, K2: c.k2,
				Theta: jitteredRows(rng, users, K1), Phi: jitteredRows(rng, K1, V), Lambda: lambda,
			}
			if c.k2 == 0 {
				w.ThetaT = jitteredRows(rng, c.intervals, V)
			} else {
				w.ThetaTx, w.PhiX = jitteredRows(rng, c.intervals, c.k2), jitteredRows(rng, c.k2, V)
				w.BackgroundW, w.Background = c.background, jitteredRows(rng, 1, V)
			}
			var payload bytes.Buffer
			if err := gob.NewEncoder(&payload).Encode(&w); err != nil {
				t.Fatal(err)
			}
			b := cuboid.NewBuilder(users, c.intervals, V)
			for u := 0; u < users; u++ {
				for i := 0; i < 5; i++ {
					b.MustAdd(u, (u+i)%c.intervals, (u*997+i*7919)%V, 1)
				}
			}
			data := b.Build()

			check := func(name string, build func() *Model) *Model {
				t.Helper()
				m, held := retained(build)
				table := 8 * len(m.table)
				if float64(held) > 1.1*float64(table) {
					t.Errorf("%s: retains %d B against a %d B table (%.2f×), want ≤ 1.1×",
						name, held, table, float64(held)/float64(table))
				}
				return m
			}
			read := check("Read", func() *Model {
				m, err := Read(bytes.NewReader(payload.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				return m
			})
			check("Train", func() *Model {
				cfg := DefaultConfig()
				cfg.K1, cfg.K2, cfg.Background, cfg.MaxIters = K1, c.k2, c.background, 2
				m, _, err := Train(data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return m
			})
			// The receiver stays alive, so what is measured is what the
			// growth adds: the table copied once into a wider stride, or
			// into one more column.
			if c.k2 > 0 {
				check("GrowFrom past the stride", func() *Model {
					m, err := read.GrowFrom(nil, c.intervals, V+1, nil)
					if err != nil {
						t.Fatal(err)
					}
					if m.stride == read.stride {
						t.Fatal("the growth did not widen the stride")
					}
					return m
				})
			} else {
				check("GrowFrom by an interval", func() *Model {
					ctx := read.FitNewInterval([]int{1, 2}, []float64{1, 1}, V, FitIters)
					m, err := read.GrowFrom(nil, c.intervals+1, V, [][]float64{ctx})
					if err != nil {
						t.Fatal(err)
					}
					return m
				})
			}
			runtime.KeepAlive(payload.Bytes())
			runtime.KeepAlive(data)
			runtime.KeepAlive(read)
		})
	}
}

// retained returns what build returns and the live heap bytes it added,
// each side measured after a full collection.
func retained(build func() *Model) (*Model, int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return m, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}
