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
// its item-indexed parameters. A decoded TTCAM with a background, a
// trained one, and one grown past its stride each retain at most 1.1×
// their table's bytes on the heap — no topic-major slab and no decoded
// wire row beside it; the rest is θ, θ′ and λ.
func TestModelHoldsOneItemIndexedCopy(t *testing.T) {
	const V, K1, K2, users, intervals = 20000, 40, 24, 200, 10
	rng := rand.New(rand.NewSource(1))
	lambda := make([]float64, users)
	for u := range lambda {
		lambda[u] = 0.5
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&wire{
		Label: "TTCAM", NumUsers: users, NumIntervals: intervals, NumItems: V, K1: K1, K2: K2,
		Theta: jitteredRows(rng, users, K1), Phi: jitteredRows(rng, K1, V),
		ThetaTx: jitteredRows(rng, intervals, K2), PhiX: jitteredRows(rng, K2, V),
		Lambda: lambda, BackgroundW: 0.1, Background: jitteredRows(rng, 1, V),
	}); err != nil {
		t.Fatal(err)
	}
	b := cuboid.NewBuilder(users, intervals, V)
	for u := 0; u < users; u++ {
		for i := 0; i < 5; i++ {
			b.MustAdd(u, (u+i)%intervals, (u*997+i*7919)%V, 1)
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
		cfg.K1, cfg.K2, cfg.Background, cfg.MaxIters = K1, K2, 0.1, 2
		m, _, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
	// The receiver stays alive, so what is measured is what the growth
	// adds: the table copied once into a wider stride.
	check("GrowFrom past the stride", func() *Model {
		m, err := read.GrowFrom(nil, intervals, V+1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.stride == read.stride {
			t.Fatal("the growth did not widen the stride")
		}
		return m
	})
	runtime.KeepAlive(payload.Bytes())
	runtime.KeepAlive(data)
	runtime.KeepAlive(read)
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
