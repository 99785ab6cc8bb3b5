package shard

import "sync"

// job is what a worker runs: a scatter leg, or a leg's backup attempt.
// Run does the work; Done reports it, once the worker is parked again.
type job interface {
	Run()
	Done()
}

// workers are the goroutines a Coordinator runs its scatter legs and
// their backup attempts on. A worker starts only when no idle one is
// parked, so no more ever exist than jobs were in flight at once;
// between jobs it parks on its own channel and keeps the stack the last
// job grew. A job's Done runs once its worker is parked again,
// so a caller that waits for Done before handing out its next job finds
// that worker free. close joins them all. The zero value is ready to
// use.
type workers struct {
	mu      sync.Mutex
	idle    []chan job // one per parked worker
	closed  bool
	spawned int // workers ever started
	wg      sync.WaitGroup
}

// Run hands j to an idle worker, or to a new one when none is parked.
// After close, j runs on the caller's goroutine.
//
//tcam:spawner workers are joined by close
func (w *workers) Run(j job) {
	w.mu.Lock()
	if n := len(w.idle); n > 0 {
		ch := w.idle[n-1]
		w.idle = w.idle[:n-1]
		w.mu.Unlock()
		ch <- j // a parked worker's channel is empty: this never blocks
		return
	}
	if w.closed {
		w.mu.Unlock()
		j.Run()
		j.Done()
		return
	}
	w.spawned++
	w.wg.Add(1)
	w.mu.Unlock()
	go w.loop(make(chan job, 1), j)
}

// loop is one worker: run j, park, report j done, take the next job
// from ch — until close, which closes ch or refuses to park it.
func (w *workers) loop(ch chan job, j job) {
	defer w.wg.Done()
	for {
		j.Run()
		parked := w.park(ch)
		j.Done()
		if !parked {
			return
		}
		if j = <-ch; j == nil {
			return
		}
	}
}

// park lists ch's worker as idle, unless the workers are closed.
func (w *workers) park(ch chan job) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.idle = append(w.idle, ch)
	return true
}

// close stops the parked workers, lets busy ones finish their job, and
// returns once every worker has exited.
func (w *workers) close() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		for _, ch := range w.idle {
			close(ch)
		}
		w.idle = nil
	}
	w.mu.Unlock()
	w.wg.Wait()
}
