package model

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestWorkers(t *testing.T) {
	if Workers(4) != 4 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("default worker count below 1")
	}
}

func TestParallelRangesCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 5, 17, 64} {
			var count int64
			seen := make([]int32, n)
			ParallelRanges(n, workers, func(worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
					atomic.AddInt64(&count, 1)
				}
			})
			if int(count) != n {
				t.Fatalf("workers=%d n=%d visited %d elements", workers, n, count)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d element %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestParallelRangesWorkerIndexBounds(t *testing.T) {
	var maxWorker int64 = -1
	ParallelRanges(100, 4, func(worker, lo, hi int) {
		for {
			cur := atomic.LoadInt64(&maxWorker)
			if int64(worker) <= cur || atomic.CompareAndSwapInt64(&maxWorker, cur, int64(worker)) {
				break
			}
		}
	})
	if maxWorker >= 4 {
		t.Errorf("worker index %d out of range", maxWorker)
	}
}

func TestNormalizeRows(t *testing.T) {
	data := []float64{1, 3, 0, 0}
	NormalizeRows(data, 2, 0)
	if math.Abs(data[0]-0.25) > 1e-12 || math.Abs(data[1]-0.75) > 1e-12 {
		t.Errorf("row 0 = %v", data[:2])
	}
	// Massless row becomes uniform.
	if data[2] != 0.5 || data[3] != 0.5 {
		t.Errorf("massless row = %v, want uniform", data[2:])
	}
}

func TestNormalizeRowsSmoothing(t *testing.T) {
	data := []float64{0, 1}
	NormalizeRows(data, 2, 0.5)
	// (0+0.5)/(1+1) = 0.25, (1+0.5)/2 = 0.75
	if math.Abs(data[0]-0.25) > 1e-12 || math.Abs(data[1]-0.75) > 1e-12 {
		t.Errorf("smoothed row = %v", data)
	}
	if s := data[0] + data[1]; math.Abs(s-1) > 1e-12 {
		t.Errorf("smoothed row sums to %v", s)
	}
}

func TestTrainStats(t *testing.T) {
	var s TrainStats
	if s.Iterations() != 0 || s.Final() != 0 {
		t.Error("zero TrainStats not zero")
	}
	s.LogLikelihood = []float64{-10, -5, -4.5}
	if s.Iterations() != 3 || s.Final() != -4.5 {
		t.Errorf("stats = %d iters final %v", s.Iterations(), s.Final())
	}
}

// Property: NormalizeRows always produces rows on the simplex for
// non-negative input and positive smoothing.
func TestNormalizeRowsSimplexProperty(t *testing.T) {
	f := func(raw []float64, colsRaw uint8) bool {
		cols := int(colsRaw%6) + 1
		rows := len(raw) / cols
		if rows == 0 {
			return true
		}
		data := make([]float64, rows*cols)
		for i := range data {
			x := raw[i]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			data[i] = math.Abs(math.Mod(x, 1e9))
		}
		NormalizeRows(data, cols, 1e-9)
		for r := 0; r < rows; r++ {
			var sum float64
			for c := 0; c < cols; c++ {
				x := data[r*cols+c]
				if x < 0 {
					return false
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
