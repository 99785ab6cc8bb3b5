package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The reference server is the benchmark's yardstick for the host, not a
// part of the system under test. The closed-loop request path on this
// shared 2-vCPU machine runs up to twice as slowly for minutes at a time
// (README.md, "Measured spread"), and no run the driver can afford
// outlasts such a spell. So every closed-loop window alternates, half a
// second each, between the real servers and this fixed stand-in: the
// same client, the same loopback HTTP, an answer of the same shape, and
// per workload about the same share of float work and the same process
// topology. What the host does to one it does to the other, and the
// benchmark reports each timing relative to the stand-in's, scaled by
// the stand-in's figures on a quiet host (refNominal).
//
// Nothing here may change once numbers have been recorded against it:
// the reference is the unit the metrics are expressed in.

// refConfig is the stand-in for one workload.
type refConfig struct {
	k      int  // items rendered per answer
	work   int  // rows scored per request (per leaf when fanned out)
	fanOut bool // a front process over two leaf processes, like the shard fleet
}

// refFigures are what a reference configuration measures on this box
// when the host is quiet (the better quartile of forty runs). They only fix the scale of the normalised
// metrics: normalised = measured × nominal ÷ reference measured beside it.
type refFigures struct {
	p50US, qps, cpuUS float64
}

var refConfigs = map[string]refConfig{
	wServeHot:     {k: 10},
	wServeCold:    {k: 50, work: 700},
	wServeSharded: {k: 10, work: 300, fanOut: true},
}

var refNominal = map[string]refFigures{
	wServeHot:     {p50US: 92, qps: 16000, cpuUS: 37},
	wServeCold:    {p50US: 218, qps: 6600, cpuUS: 116},
	wServeSharded: {p50US: 500, qps: 3550, cpuUS: 380},
}

const (
	refRows, refDim = 20000, 64 // the table a request scores rows of: 10 MB, like a serving model
	refRequests     = 8192      // distinct requests in a reference stream
)

// refTable is the reference's stand-in for a model: fixed pseudo-random
// rows and one weight vector.
type refTable struct {
	rows    []float64
	weights []float64
}

func newRefTable() *refTable {
	t := &refTable{rows: make([]float64, refRows*refDim), weights: make([]float64, refDim)}
	x := uint64(88172645463325252)
	for i := range t.rows {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t.rows[i] = float64(x%1000) / 1000
	}
	for i := range t.weights {
		t.weights[i] = float64(i+1) / refDim
	}
	return t
}

// score is the stand-in for a top-k search: `work` dot products against
// rows picked by a generator seeded from the request, so the loads miss
// the cache the way random accesses into a model do.
func (t *refTable) score(seed uint64, work int) float64 {
	best := 0.0
	s := seed*2862933555777941757 + 3037000493
	for i := 0; i < work; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		v := int((s >> 33) % refRows)
		row := t.rows[v*refDim : v*refDim+refDim]
		dot := 0.0
		for j, w := range t.weights {
			dot += w * row[j]
		}
		if dot > best {
			best = dot
		}
	}
	return best
}

// refHandler answers /recommend in the real servers' shape. With leaves
// it asks each for its answer first and merges them, as the shard
// coordinator does.
type refHandler struct {
	table  *refTable
	leaves []string
	hc     *http.Client
}

func (h *refHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		w.Write([]byte(`{"status":"ok"}` + "\n"))
		return
	}
	q := r.URL.Query()
	k, _ := strconv.Atoi(q.Get("k"))
	work, _ := strconv.Atoi(q.Get("work"))
	seed, _ := strconv.ParseUint(q.Get("s"), 10, 64)
	var best float64
	if len(h.leaves) > 0 {
		parts := make([]answer, len(h.leaves))
		var wg sync.WaitGroup
		for i, leaf := range h.leaves {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := h.hc.Get(leaf + "/recommend?" + r.URL.RawQuery)
				if err != nil {
					return
				}
				defer resp.Body.Close()
				_ = json.NewDecoder(resp.Body).Decode(&parts[i])
			}()
		}
		wg.Wait()
		var all []recommendation
		for _, p := range parts {
			all = append(all, p.Recommendations...)
		}
		if len(all) != k*len(h.leaves) {
			http.Error(w, "a leaf did not answer", http.StatusBadGateway)
			return
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Score > all[j].Score })
		best = all[0].Score
	} else {
		best = h.table.score(seed, work)
	}
	buf := make([]byte, 0, 96+k*48)
	buf = append(buf, `{"user":"`...)
	buf = append(buf, q.Get("user")...)
	buf = append(buf, `","interval":29,"recommendations":[`...)
	for i := 0; i < k; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"item":"item`...)
		buf = strconv.AppendUint(buf, uint64(i)*37+seed%1000, 10)
		buf = append(buf, `","score":`...)
		buf = strconv.AppendFloat(buf, (best+1)/float64(i+1), 'g', -1, 64)
		buf = append(buf, '}')
	}
	buf = append(buf, `],"items_examined":`...)
	buf = strconv.AppendInt(buf, int64(work), 10)
	buf = append(buf, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
}

// refServerMain is the program behind -refserver: the benchmark runs
// itself in this mode as a child, so that the reference is a process of
// its own like the servers it stands in for. It serves until SIGTERM.
func refServerMain(addr, leaves string) error {
	h := &refHandler{table: newRefTable(), hc: newHTTPClient(4)}
	if leaves != "" {
		h.leaves = strings.Split(leaves, ",")
	}
	srv := &http.Server{Addr: addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// startRef starts the workload's reference processes and returns them
// with the load target that drives them: the same client loop and the
// same structural check as the real servers get.
func (r *run) startRef(workload string) ([]*proc, *target, error) {
	cfg := refConfigs[workload]
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var procs []*proc
	stopAll := func() {
		for _, p := range procs {
			p.stop()
		}
	}
	hc := newHTTPClient(r.clients)
	launch := func(leaves string) (string, error) {
		addr, err := freeAddr()
		if err != nil {
			return "", err
		}
		p, err := r.env.startPath(self, "reference", "-refserver", addr, "-refleaves", leaves)
		if err != nil {
			return "", err
		}
		procs = append(procs, p)
		base := "http://" + addr
		return base, waitHealthy(r.ctx, hc, p, base, 30*time.Second, nil)
	}
	var leaves []string
	if cfg.fanOut {
		for i := 0; i < 2; i++ {
			base, err := launch("")
			if err != nil {
				stopAll()
				return nil, nil, err
			}
			leaves = append(leaves, base)
		}
	}
	base, err := launch(strings.Join(leaves, ","))
	if err != nil {
		stopAll()
		return nil, nil, err
	}
	return procs, &target{hc: hc, base: base, reqs: refStream(r.seed, cfg), next: new(atomic.Int64)}, nil
}

// refStream is the request stream a reference configuration is driven
// with; like every other input it is a pure function of the run seed.
func refStream(seed int64, cfg refConfig) []req {
	reqs := make([]req, refRequests)
	for i := range reqs {
		reqs[i] = req{K: cfg.k, Path: fmt.Sprintf("/recommend?user=user%05d&time=88&k=%d&work=%d&s=%d",
			i%hotUsers, cfg.k, cfg.work, uint64(subSeed(seed, tagRef))+uint64(i))}
	}
	return reqs
}

// ---- the compute reference ----------------------------------------------
//
// Set-up (input generation, boot training, index build) and publishing
// (fold-in, index rebuild) are float and memory work, and the host's
// speed at that moves separately from its speed at passing requests
// between threads: over twenty minutes the same set-up took 2.7 s and
// then 2.1 s while the request path did not move. Their yardstick is a
// fixed piece of work of the same kind — a few EM sweeps of a small
// latent-topic model over a sparse count table, then sorts of its topic
// rows, on two goroutines — timed several times in every run. Timings of
// compute-bound work are reported relative to the median of those
// probes, on the scale of refComputeNominalMS.

const (
	probeUsers, probeItems, probeTopics = 2000, 8000, 32
	probeCells                          = 120000
	probeSweeps                         = 6

	// refComputeNominalMS is what one probe takes here on a quiet host.
	refComputeNominalMS = 210.0
)

// probeModel is one goroutine's share of the probe.
type probeModel struct {
	u, v  []int32
	count []float64
	theta []float64 // users × topics
	phi   []float64 // topics × items
}

func newProbeModel(seed uint64) *probeModel {
	m := &probeModel{
		u: make([]int32, probeCells), v: make([]int32, probeCells), count: make([]float64, probeCells),
		theta: make([]float64, probeUsers*probeTopics), phi: make([]float64, probeTopics*probeItems),
	}
	x := uint64(88172645463325252) + seed
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range m.u {
		m.u[i] = int32(next() % probeUsers)
		m.v[i] = int32(next() % probeItems)
		m.count[i] = float64(next()%5 + 1)
	}
	for i := range m.theta {
		m.theta[i] = float64(next()%1000+1) / 1000
	}
	for i := range m.phi {
		m.phi[i] = float64(next()%1000+1) / 1000
	}
	return m
}

// sweep is one E-step and accumulation over every cell, then a sort of
// every fourth topic row, as an index build does. The parameters are
// never updated, so every sweep is the same work.
func (m *probeModel) sweep() float64 {
	theta := make([]float64, len(m.theta))
	phi := make([]float64, len(m.phi))
	var p [probeTopics]float64
	sum := 0.0
	for i := range m.u {
		u, v := int(m.u[i]), int(m.v[i])
		row := m.theta[u*probeTopics : (u+1)*probeTopics]
		s := 0.0
		for k := range p {
			p[k] = row[k] * m.phi[k*probeItems+v]
			s += p[k]
		}
		w := m.count[i] / s
		for k := range p {
			r := p[k] * w
			theta[u*probeTopics+k] += r
			phi[k*probeItems+v] += r
		}
		sum += s
	}
	for k := 0; k < probeTopics; k += 4 {
		row := append([]float64(nil), phi[k*probeItems:(k+1)*probeItems]...)
		sort.Float64s(row)
		sum += row[0]
	}
	return sum
}

// computeProbe holds the probe's inputs and the timings taken so far.
type computeProbe struct {
	models [2]*probeModel
	ms     []float64
}

func newComputeProbe() *computeProbe {
	return &computeProbe{models: [2]*probeModel{newProbeModel(1), newProbeModel(2)}}
}

// take runs the probe once and records how long it took.
func (c *computeProbe) take() {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, m := range c.models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < probeSweeps; i++ {
				m.sweep()
			}
		}()
	}
	wg.Wait()
	c.ms = append(c.ms, float64(time.Since(t0))/float64(time.Millisecond))
}

// factor is how much slower than nominal the host ran compute-bound work
// during this run: 1 on a quiet host.
func (c *computeProbe) factor() float64 { return median(c.ms) / refComputeNominalMS }
