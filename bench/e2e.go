package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"tcam/internal/eval"
	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/server"
)

// run is one invocation: one workload, one seed, one mode.
type run struct {
	ctx     context.Context
	env     *env
	seed    int64
	seconds int
	clients int
	res     *result

	probe      *computeProbe // black-box runs: the compute reference, timed around set-ups and window
	setupTimes []float64     // seconds, one per set-up
}

func (r *run) window() time.Duration { return time.Duration(r.seconds) * time.Second }

// blackBox drives the built binaries from outside, untraced, and fills
// the end-to-end metrics.
func (r *run) blackBox(workload string) error {
	r.probe = newComputeProbe()
	var err error
	switch workload {
	case wServeHot, wServeCold, wServeSharded:
		var inst *serveInstance
		if inst, err = repeatSetup(r, func() (*serveInstance, error) { return r.setupServe(workload) }); err == nil {
			defer inst.close()
			err = r.measureServe(workload, inst)
		}
	case wPublish:
		var inst *publishInstance
		if inst, err = repeatSetup(r, r.setupPublish); err == nil {
			defer inst.close()
			err = r.measurePublish(inst)
		}
	case wTrain:
		var inst *trainInstance
		if inst, err = repeatSetup(r, r.setupTrain); err == nil {
			err = r.measureTrain(inst)
		}
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	r.setSetup()
	return nil
}

// repeatSetup sets the workload up setupRepeats times — inputs,
// boot training, process start, warm-up, all of it — so that one slow
// start does not decide setup_s, with the compute reference timed before
// each and after the last. The last instance is the one measured.
func repeatSetup[T interface{ close() }](r *run, setup func() (T, error)) (T, error) {
	var inst T
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			inst.close()
		}
		r.probe.take()
		t0 := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return inst, err
		}
		r.setupTimes = append(r.setupTimes, time.Since(t0).Seconds())
	}
	r.probe.take()
	return inst, nil
}

// setSetup reports the median set-up time relative to the compute
// reference: set-up is input generation, training and index building,
// and is as fast as the host is at those.
func (r *run) setSetup() {
	f := r.probe.factor()
	q1, med, q3 := quartiles(r.setupTimes)
	r.res.Metrics[mSetup] = value{Value: med / f, Q1: q1 / f, Q3: q3 / f, Samples: len(r.setupTimes)}
	r.res.report("raw.setup_s", "s", med)
	r.res.report("ref.compute_ms", "ms", median(r.probe.ms))
	r.res.report("ref.compute_factor", "ratio", f)
}

// ---- serve_hot, serve_cold, serve_sharded -------------------------------

type serveInstance struct {
	procs     []*proc // every server-side process, for CPU and memory
	tgt       target
	cacheBase string // server whose /healthz carries cache counters
}

func (s *serveInstance) close() {
	for _, p := range s.procs {
		p.stop()
	}
}

func (r *run) setupServe(workload string) (*serveInstance, error) {
	b, reqs, err := serveInputs(r.seed, r.seconds, workload)
	if err != nil {
		return nil, err
	}
	dir, err := r.env.dir(workload)
	if err != nil {
		return nil, err
	}
	bundlePath := filepath.Join(dir, "boot.tcam")
	if err := b.Save(bundlePath); err != nil {
		return nil, err
	}
	inst := &serveInstance{tgt: target{hc: newHTTPClient(r.clients), bundle: b, reqs: reqs, next: new(atomic.Int64)}}
	if workload == wServeSharded {
		err = r.startFleet(inst, bundlePath, len(b.Items))
	} else {
		err = r.startServer(inst, bundlePath)
	}
	if err != nil {
		inst.close()
		return nil, err
	}
	if warm := closedLoop(r.ctx, &inst.tgt, r.clients, warmup); warm.failed > 0 {
		inst.close()
		return nil, fmt.Errorf("warm-up: %d of %d failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	return inst, nil
}

// cacheFlags are shared by every tcamserver the benchmark starts.
var cacheFlags = []string{"-cache-entries", strconv.Itoa(cacheEntries), "-precompute-hot", strconv.Itoa(precomputeHot)}

func (r *run) startServer(inst *serveInstance, bundlePath string, extra ...string) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	args := append([]string{"-bundle", bundlePath, "-addr", addr}, cacheFlags...)
	p, err := r.env.start("tcamserver", append(args, extra...)...)
	if err != nil {
		return err
	}
	inst.procs = append(inst.procs, p)
	inst.tgt.base = "http://" + addr
	inst.cacheBase = inst.tgt.base
	return waitHealthy(r.ctx, inst.tgt.hc, p, inst.tgt.base, 30*time.Second, nil)
}

// startFleet starts two shards that each index half the catalog and an
// uncached coordinator in front of them.
func (r *run) startFleet(inst *serveInstance, bundlePath string, items int) error {
	half := items / 2
	windows := [][2]int{{0, half}, {half, items}}
	spec := ""
	for i, w := range windows {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		span := fmt.Sprintf("%d-%d", w[0], w[1])
		p, err := r.env.start("tcamshard", "-mode", "shard", "-bundle", bundlePath, "-items", span, "-addr", addr)
		if err != nil {
			return err
		}
		inst.procs = append(inst.procs, p)
		if err := waitHealthy(r.ctx, inst.tgt.hc, p, "http://"+addr, 30*time.Second, nil); err != nil {
			return err
		}
		if i > 0 {
			spec += ","
		}
		spec += "http://" + addr + "=" + span
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	p, err := r.env.start("tcamshard", "-mode", "coordinator", "-shards", spec, "-cache-entries", "0", "-addr", addr)
	if err != nil {
		return err
	}
	inst.procs = append(inst.procs, p)
	inst.tgt.base = "http://" + addr
	return waitHealthy(r.ctx, inst.tgt.hc, p, inst.tgt.base, 30*time.Second, nil)
}

// window is what was read around a measured window besides latencies.
type windowCost struct {
	cpu      time.Duration
	rssMB    float64
	hitRatio float64 // NaN without a cache
	stale    uint64
}

// aroundWindow runs load between two readings of the server-side
// processes' CPU clocks and cache counters.
func (r *run) aroundWindow(procs []*proc, hc *http.Client, cacheBase string, load func()) (windowCost, error) {
	var c windowCost
	var h0 *health
	var err error
	if cacheBase != "" {
		if h0, err = getHealth(r.ctx, hc, cacheBase); err != nil {
			return c, err
		}
	}
	cpu0, err := sumOver(procs, cpuTime)
	if err != nil {
		return c, err
	}
	load()
	cpu1, err := sumOver(procs, cpuTime)
	if err != nil {
		return c, err
	}
	c.cpu = cpu1 - cpu0
	if c.rssMB, err = sumOver(procs, peakRSS); err != nil {
		return c, err
	}
	if cacheBase != "" {
		h1, err := getHealth(r.ctx, hc, cacheBase)
		if err != nil {
			return c, err
		}
		if c.hitRatio, c.stale, err = cacheDelta(h0, h1); err != nil {
			return c, err
		}
	}
	return c, nil
}

// cacheDelta is the hit ratio and the stale reclaims between two
// /healthz readings of a cached server.
func cacheDelta(h0, h1 *health) (hitRatio float64, stale uint64, err error) {
	if h0.Cache == nil || h1.Cache == nil {
		return 0, 0, fmt.Errorf("/healthz carries no cache counters")
	}
	hits := h1.Cache.Hits - h0.Cache.Hits
	misses := h1.Cache.Misses - h0.Cache.Misses
	return float64(hits) / float64(hits+misses), h1.Cache.Stale - h0.Cache.Stale, nil
}

// setLatency fills the shared metrics of a workload that is not paired
// with the reference server. Where the operation or the CPU it costs is
// compute-bound, the figure is reported relative to the compute
// reference (wallFactor, cpuFactor; 1 leaves it as read off the clock).
// The tail latency is reported but carries no bound: on a shared host
// its run-to-run spread alone exceeded every bound the driver accepts.
func (r *run) setLatency(lr *loadResult, c windowCost, wallFactor, cpuFactor float64) {
	p50 := sliceMedian(lr.slices, func(s []float64) float64 { return percentile(s, 50) })
	r.res.Metrics[mP50] = value{Value: p50.Value / wallFactor, Q1: p50.Q1 / wallFactor, Q3: p50.Q3 / wallFactor, Samples: p50.Samples}
	p99 := sliceMedian(lr.slices, func(s []float64) float64 { return percentile(s, 99) })
	r.res.Reported["client.p99_us"] = value{Value: p99.Value, Unit: "us", Q1: p99.Q1, Q3: p99.Q3, Samples: p99.Samples}
	qps := float64(lr.ok()) / lr.elapsed.Seconds()
	r.res.Metrics[mQPS] = value{Value: qps * wallFactor, Samples: lr.ok()}
	cpu := float64(c.cpu) / float64(time.Microsecond) / float64(lr.ok())
	r.res.Metrics[mCPU] = value{Value: cpu / cpuFactor, Samples: lr.ok()}
	r.res.set(mPeakMB, c.rssMB)
	if wallFactor != 1 {
		r.res.report("raw.p50_us", "us", p50.Value)
		r.res.report("raw.qps", "1/s", qps)
	}
	if cpuFactor != 1 {
		r.res.report("raw.cpu_us_per_req", "us", cpu)
	}
}

// setNormalised fills the shared metrics of a closed-loop workload from
// a paired window: each timing is reported relative to the reference
// server's, slice by slice, on the scale of refNominal. What was read off
// the clock, and what the reference read beside it, are reported too.
func (r *run) setNormalised(workload string, lr, ref *loadResult, c windowCost, refCPU time.Duration) {
	nom := refNominal[workload]
	p50 := func(s []float64) float64 { return percentile(s, 50) }
	sutP50, refP50 := sliceStats(lr.slices, p50), sliceStats(ref.slices, p50)
	r.res.setSummary(mP50, normalised(sutP50, refP50, nom.p50US, lr.ok()))
	r.res.setSummary(mQPS, normalised(lr.rates, ref.rates, nom.qps, lr.ok()))
	perReq := func(cpu time.Duration, n int) float64 { return float64(cpu) / float64(time.Microsecond) / float64(n) }
	sutCPU, refCPUPerReq := perReq(c.cpu, lr.ok()), perReq(refCPU, ref.ok())
	r.res.Metrics[mCPU] = value{Value: sutCPU * nom.cpuUS / refCPUPerReq, Samples: lr.ok()}
	r.res.set(mPeakMB, c.rssMB)

	p99 := sliceMedian(lr.slices, func(s []float64) float64 { return percentile(s, 99) })
	r.res.Reported["client.p99_us"] = value{Value: p99.Value, Unit: "us", Q1: p99.Q1, Q3: p99.Q3, Samples: p99.Samples}
	r.res.report("raw.p50_us", "us", median(sutP50))
	r.res.report("raw.qps", "1/s", median(lr.rates))
	r.res.report("raw.cpu_us_per_req", "us", sutCPU)
	r.res.report("ref.p50_us", "us", median(refP50))
	r.res.report("ref.qps", "1/s", median(ref.rates))
	r.res.report("ref.cpu_us_per_req", "us", refCPUPerReq)
	r.res.report("ref.host_factor", "ratio", median(refP50)/nom.p50US)
}

func (r *run) measureServe(workload string, inst *serveInstance) error {
	inst.tgt.keep = true
	refProcs, refTgt, err := r.startRef(workload)
	if err != nil {
		return fmt.Errorf("reference server: %w", err)
	}
	defer func() {
		for _, p := range refProcs {
			p.stop()
		}
	}()
	if warm := closedLoop(r.ctx, refTgt, r.clients, warmup); warm.failed > 0 {
		return fmt.Errorf("reference server: warm-up: %d of %d failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	refCPU, err := sumOver(refProcs, cpuTime)
	if err != nil {
		return err
	}
	var lr, ref *loadResult
	cost, err := r.aroundWindow(inst.procs, inst.tgt.hc, inst.cacheBase, func() {
		lr, ref = pairedLoop(r.ctx, &inst.tgt, refTgt, r.clients, r.window())
	})
	if err != nil {
		return err
	}
	refCPU1, err := sumOver(refProcs, cpuTime)
	if err != nil {
		return err
	}
	refCPU = refCPU1 - refCPU
	r.probe.take()
	// The reference is the yardstick: without it there is nothing to report.
	if ref.failed > 0 || ref.ok() == 0 || refCPU <= 0 {
		return fmt.Errorf("reference server: %d of %d requests failed over %s of CPU: %v", ref.failed, ref.attempted, refCPU, ref.firstErr)
	}
	or := newOracle(inst.tgt.bundle)
	for i := range lr.kept {
		if err := or.verify(lr.kept[i].q, &lr.kept[i].a); err != nil {
			lr.fail(err)
		}
	}
	r.res.Attempted, r.res.Failed = lr.attempted, lr.failed
	if lr.ok() == 0 {
		return fmt.Errorf("%s: no request succeeded: %v", workload, lr.firstErr)
	}
	if lr.failed > 0 {
		r.res.flunk("%d of %d failed, first: %v", lr.failed, lr.attempted, lr.firstErr)
	}
	r.setNormalised(workload, lr, ref, cost, refCPU)
	r.res.report("oracle_checked", "count", float64(len(lr.kept)))
	r.res.report("topk.items_examined", "count", float64(lr.itemsExamined)/float64(lr.ok()))
	if inst.cacheBase != "" {
		r.res.report("rescache.hit_ratio", "ratio", cost.hitRatio)
		// The two mixes exist to load different layers; a hit ratio on
		// the wrong side means the run measured something else.
		if workload == wServeHot && cost.hitRatio < 0.95 {
			r.res.flunk("hit ratio %.3f below 0.95: the hot mix is not hot", cost.hitRatio)
		}
		if workload == wServeCold && cost.hitRatio > 0.1 {
			r.res.flunk("hit ratio %.3f above 0.1: the cold mix is not cold", cost.hitRatio)
		}
	}
	return nil
}

// ---- publish_under_read -------------------------------------------------

type publishInstance struct {
	serveInstance
	boot       *index.Bundle
	bundlePath string
	logDir     string
	log        *ingest.Log // this process is the log's single writer
	batches    [][]ingest.Record
}

func (r *run) setupPublish() (*publishInstance, error) {
	b, batches, reqs, err := publishInputs(r.seed, r.seconds)
	if err != nil {
		return nil, err
	}
	dir, err := r.env.dir(wPublish)
	if err != nil {
		return nil, err
	}
	inst := &publishInstance{boot: b, batches: batches,
		bundlePath: filepath.Join(dir, "boot.tcam"), logDir: filepath.Join(dir, "log")}
	if err := b.Save(inst.bundlePath); err != nil {
		return nil, err
	}
	if inst.log, err = ingest.Open(inst.logDir); err != nil {
		return nil, err
	}
	inst.tgt = target{hc: newHTTPClient(2), bundle: b, reqs: reqs, next: new(atomic.Int64)}
	if err := r.startServer(&inst.serveInstance, inst.bundlePath, inst.ingestFlags()...); err != nil {
		inst.close()
		return nil, err
	}
	if warm := openLoop(r.ctx, &inst.tgt, readRate, warmup); warm.failed > 0 {
		inst.close()
		return nil, fmt.Errorf("warm-up: %d of %d failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	return inst, nil
}

func (p *publishInstance) ingestFlags() []string {
	return []string{"-ingest-log", p.logDir, "-ingest-interval", ingestInterval}
}

// appendResult is what the writer saw.
type appendResult struct {
	appended int
	end      int64     // log offset after the last append
	lagsMS   []float64 // Append returning offset e → /healthz showing log_offset ≥ e
	err      error
}

// writeStream appends one batch every appendEvery ms for the length of
// the window, and after each append polls /healthz until the server has
// published that offset. An append that falls due while the previous
// one is still unpublished goes out as soon as it can.
func (r *run) writeStream(inst *publishInstance, window time.Duration) appendResult {
	var res appendResult
	start := time.Now()
	for i := 0; i < len(inst.batches) && r.ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i*appendEvery) * time.Millisecond)
		if due.Sub(start) >= window {
			break
		}
		time.Sleep(time.Until(due))
		end, err := inst.log.Append(inst.batches[i]...)
		if err != nil {
			res.err = err
			return res
		}
		appended := time.Now()
		res.appended++
		res.end = end
		for {
			h, err := getHealth(r.ctx, inst.tgt.hc, inst.tgt.base)
			if err == nil && h.Ingest != nil && h.Ingest.LogOffset >= end {
				res.lagsMS = append(res.lagsMS, float64(time.Since(appended))/float64(time.Millisecond))
				break
			}
			if time.Since(appended) > 10*time.Second {
				res.err = fmt.Errorf("offset %d not published 10 s after its append (last error: %v)", end, err)
				return res
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return res
}

func (r *run) measurePublish(inst *publishInstance) error {
	var lr *loadResult
	var ar appendResult
	cost, err := r.aroundWindow(inst.procs, inst.tgt.hc, inst.cacheBase, func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ar = r.writeStream(inst, r.window())
		}()
		lr = openLoop(r.ctx, &inst.tgt, readRate, r.window())
		<-done
	})
	if err != nil {
		return err
	}
	if ar.err != nil {
		return fmt.Errorf("writer: %w", ar.err)
	}
	r.probe.take()
	if lr.ok() == 0 {
		return fmt.Errorf("no read succeeded: %v", lr.firstErr)
	}
	attempted, failed := lr.attempted+ar.appended, lr.failed
	if lr.failed > 0 {
		r.res.flunk("%d of %d reads failed, first: %v", lr.failed, lr.attempted, lr.firstErr)
	}
	bad, n, err := r.publishInvariant(inst, ar)
	if err != nil {
		return err
	}
	attempted, failed = attempted+n, failed+len(bad)
	if len(bad) > 0 {
		r.res.flunk("publish invariant: %d of %d answers differ from boot.Advance(full log), first: %s", len(bad), n, bad[0])
	}
	r.res.Attempted, r.res.Failed = attempted, failed
	// A read's latency at this rate is wake-up time, which the host's
	// compute speed does not move; the CPU is the publishes', which it does.
	r.setLatency(lr, cost, 1, r.probe.factor())
	r.res.report("publish_lag_ms", "ms", median(ar.lagsMS))
	r.res.report("publishes_awaited", "count", float64(len(ar.lagsMS)))
	r.res.report("events_appended", "count", float64(ar.end))
	r.res.report("client.late_ratio", "ratio", float64(lr.late)/float64(lr.attempted))
	r.res.report("rescache.hit_ratio", "ratio", cost.hitRatio)
	r.res.report("rescache.stale", "count", float64(cost.stale))
	restart, err := r.restartTimes(inst, ar.end)
	if err != nil {
		return err
	}
	r.res.report("restart_s", "s", median(restart))
	return nil
}

// publishInvariant checks that what the live server publishes is a pure
// function of (boot bundle, log prefix): after the last publish its
// answers to fixed queries must equal, byte for byte, those of a server
// in this process that consumed the whole log in one step. Queries go
// to boot users and to users the stream introduced.
func (r *run) publishInvariant(inst *publishInstance, ar appendResult) (bad []string, n int, err error) {
	ref, err := server.New(inst.boot)
	if err != nil {
		return nil, 0, err
	}
	up, err := server.NewUpdater(ref, inst.log, inst.boot, server.UpdaterConfig{})
	if err != nil {
		return nil, 0, err
	}
	if _, err := up.Step(); err != nil {
		return nil, 0, fmt.Errorf("reference updater: %w", err)
	}
	old, err := coldRequests(subSeed(r.seed, tagInvariant), invariantQueries*3/4, 10, inst.boot)
	if err != nil {
		return nil, 0, err
	}
	paths := make([]string, 0, invariantQueries)
	for _, q := range old {
		paths = append(paths, q.Path)
	}
	known := indexOf(inst.boot.Users)
	for _, batch := range inst.batches[:ar.appended] {
		for _, rec := range batch {
			if _, ok := known[rec.User]; !ok && len(paths) < invariantQueries {
				known[rec.User] = -1
				paths = append(paths, fmt.Sprintf("/recommend?user=%s&time=%d&k=10", rec.User, worldDays-1))
			}
		}
	}
	for _, path := range paths {
		resp, err := inst.tgt.hc.Get(inst.tgt.base + path)
		if err != nil {
			return nil, 0, err
		}
		live, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if resp.StatusCode != http.StatusOK || !bytes.Equal(live, rec.Body.Bytes()) {
			bad = append(bad, path)
		}
	}
	return bad, len(paths), nil
}

// restartTimes execs a fresh tcamserver on the final log three times
// and times each until /healthz shows it has caught up.
func (r *run) restartTimes(inst *publishInstance, end int64) ([]float64, error) {
	var out []float64
	for i := 0; i < 3; i++ {
		fresh := &serveInstance{tgt: target{hc: inst.tgt.hc}}
		t0 := time.Now()
		err := r.startServer(fresh, inst.bundlePath, inst.ingestFlags()...)
		if err == nil {
			err = waitHealthy(r.ctx, fresh.tgt.hc, fresh.procs[0], fresh.tgt.base, 30*time.Second, func(h *health) bool {
				return h.Ingest != nil && h.Ingest.Lag == 0 && h.Ingest.LogOffset >= end
			})
		}
		out = append(out, time.Since(t0).Seconds())
		fresh.close()
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
	}
	return out, nil
}

// ---- train_batch --------------------------------------------------------

type trainInstance struct {
	h      *holdout
	dir    string
	inPath string
}

func (t *trainInstance) close() {}

func (r *run) setupTrain() (*trainInstance, error) {
	dir, err := r.env.dir(wTrain)
	if err != nil {
		return nil, err
	}
	inst := &trainInstance{dir: dir, inPath: filepath.Join(dir, "train.jsonl")}
	if inst.h, err = trainInputs(r.seed, inst.inPath); err != nil {
		return nil, err
	}
	// One short exec pages the binary and the input in.
	if _, err := r.execTrain(inst, filepath.Join(dir, "warm.tcam"), 1); err != nil {
		return nil, err
	}
	return inst, nil
}

// trainExec is what one tcamtrain process cost.
type trainExec struct {
	wall, cpu time.Duration
	rssMB     float64
}

func (r *run) execTrain(inst *trainInstance, out string, iters int) (trainExec, error) {
	cmd := exec.CommandContext(r.ctx, filepath.Join(r.env.bin, "tcamtrain"),
		"-in", inst.inPath, "-out", out, "-interval", strconv.Itoa(intervalDays),
		"-k1", strconv.Itoa(trainK1), "-k2", strconv.Itoa(trainK2),
		"-iters", strconv.Itoa(iters), "-tol", "-1", "-workers", "0")
	var output bytes.Buffer
	cmd.Stdout, cmd.Stderr = &output, &output
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return trainExec{}, fmt.Errorf("tcamtrain: %w\n%s", err, output.String())
	}
	te := trainExec{wall: time.Since(t0), cpu: cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		te.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return te, nil
}

// measureTrain runs tcamtrain back to back for the window. One exec is
// one operation, so each slice holds at most one sample.
func (r *run) measureTrain(inst *trainInstance) error {
	lr := newLoadResult()
	var cpu time.Duration
	var rss []float64
	var first []byte
	start := time.Now()
	for n := 0; ; n++ {
		off := time.Since(start)
		if off >= r.window() {
			break
		}
		out := filepath.Join(inst.dir, fmt.Sprintf("run%d.tcam", n))
		lr.attempted++
		te, err := r.execTrain(inst, out, trainIters)
		if err != nil {
			return err
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			return err
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(first, raw) {
			lr.fail(fmt.Errorf("exec %d wrote a different bundle from the same input", n))
			continue
		}
		cpu += te.cpu
		rss = append(rss, te.rssMB)
		lr.slices[sliceOf(off, r.window())] = append(lr.slices[sliceOf(off, r.window())], float64(te.wall)/float64(time.Microsecond))
	}
	lr.elapsed = time.Since(start)
	r.probe.take()
	r.res.Attempted, r.res.Failed = lr.attempted, lr.failed
	if lr.failed > 0 {
		r.res.flunk("%v", lr.firstErr)
	}
	// Whether a Go process's heap peaks just before or just after a
	// collection puts an exec's high-water mark in one of two modes; the
	// median over execs reports the usual one.
	f := r.probe.factor()
	r.setLatency(lr, windowCost{cpu: cpu, rssMB: median(rss)}, f, f)
	r.res.report("train_s", "s", r.res.Metrics[mP50].Value/1e6)

	b, err := index.Load(filepath.Join(inst.dir, "run0.tcam"))
	if err != nil {
		return err
	}
	queries := inst.h.evalQueries(b)
	p10 := eval.EvaluateTA(b.BuildIndex(), b.Scorer(), queries, 10, 0).At(10).Precision
	r.res.report("precision_at_10", "ratio", p10)
	r.res.report("eval_queries", "count", float64(len(queries)))
	if !(p10 > 0) {
		r.res.flunk("precision@10 is %v on %d held-out queries: the bundle recommends nothing right", p10, len(queries))
	}
	return nil
}
