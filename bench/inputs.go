package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"tcam/internal/cuboid"
	"tcam/internal/datagen"
	"tcam/internal/dataset"
	"tcam/internal/eval"
	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/model"
	"tcam/internal/model/ttcam"
	"tcam/internal/weighting"
)

// Every generator below is a pure function of the run seed; subSeed
// gives each its own stream so that adding a generator never shifts
// another's draws.
func subSeed(seed int64, tag int64) int64 { return seed<<8 | tag }

const (
	tagWorld = iota + 1
	tagHot
	tagCold
	tagSplit
	tagInvariant
	tagRef
)

// genWorld synthesises a digg-profile interaction log.
func genWorld(seed int64, users, items int) (*datagen.World, error) {
	cfg := datagen.DefaultConfig(datagen.Digg)
	cfg.Seed = subSeed(seed, tagWorld)
	cfg.NumUsers, cfg.NumItems, cfg.NumDays = users, items, worldDays
	return datagen.Generate(cfg)
}

func namesOf(log *dataset.Interactions) (users, items []string) {
	users = make([]string, log.NumUsers())
	for u := range users {
		users[u] = log.UserID(u)
	}
	items = make([]string, log.NumItems())
	for v := range items {
		items[v] = log.ItemID(v)
	}
	return users, items
}

// trainBundle fits W-TTCAM exactly as tcam.Train (and so tcamtrain)
// does — grid, Section 3.3 weighting, EM with early stopping off — but
// returns the bundle itself, which the oracle and the traced run need.
func trainBundle(log *dataset.Interactions, k1, k2, iters int, hook func(model.IterStat)) (*index.Bundle, error) {
	data, grid, err := log.Grid(intervalDays)
	if err != nil {
		return nil, err
	}
	return trainCuboid(weighting.WeightCuboid(data), grid, log, k1, k2, iters, hook)
}

func trainCuboid(weighted *cuboid.Cuboid, grid dataset.TimeGrid, log *dataset.Interactions, k1, k2, iters int, hook func(model.IterStat)) (*index.Bundle, error) {
	cfg := ttcam.DefaultConfig()
	cfg.K1, cfg.K2, cfg.MaxIters, cfg.Tol, cfg.Label, cfg.Hook = k1, k2, iters, 0, "W-TTCAM", hook
	m, _, err := ttcam.Train(weighted, cfg)
	if err != nil {
		return nil, err
	}
	users, items := namesOf(log)
	return index.NewTTCAM(m, grid, users, items), nil
}

// req is one /recommend request: bundle indices for the oracle and the
// in-process layers, and the rendered path the HTTP client sends.
type req struct {
	U       int
	Time    int64
	K       int
	Exclude []int
	Path    string
}

func renderRequests(b *index.Bundle, qs []datagen.Query) []req {
	out := make([]req, len(qs))
	for i, q := range qs {
		v := url.Values{}
		v.Set("user", b.Users[q.User])
		v.Set("time", strconv.FormatInt(q.Time, 10))
		v.Set("k", strconv.Itoa(q.K))
		if len(q.Exclude) > 0 {
			names := make([]string, len(q.Exclude))
			for j, x := range q.Exclude {
				names[j] = b.Items[x]
			}
			v.Set("exclude", strings.Join(names, ","))
		}
		out[i] = req{U: q.User, Time: q.Time, K: q.K, Exclude: q.Exclude, Path: "/recommend?" + v.Encode()}
	}
	return out
}

// hotRequests is the head-heavy mix: Zipf(1.2) over the hotUsers
// lowest-numbered users, times in the last two intervals of the 90-day
// horizon, k=10, no excludes. Its 2×hotUsers distinct keys are a small
// fraction of the cache's entries and are mostly seen by the end of the
// warm-up, so nearly every measured request hits.
func hotRequests(seed int64, n int, b *index.Bundle) ([]req, error) {
	last := b.Grid.Origin + worldDays - 1
	qs, err := datagen.GenerateQueries(datagen.QueryLoadConfig{
		Queries: n, Users: min(hotUsers, len(b.Users)), UserExponent: 1.2,
		TimeMin: last - 2*intervalDays + 1, TimeMax: last,
		K: 10, Seed: subSeed(seed, tagHot),
	})
	if err != nil {
		return nil, err
	}
	return renderRequests(b, qs), nil
}

// coldRequests is the cache-defeating mix: users and times uniform over
// the whole catalog and horizon, 0–8 Zipf-item excludes. A vanishing
// Zipf exponent is how datagen.GenerateQueries is asked for uniform
// users.
func coldRequests(seed int64, n, k int, b *index.Bundle) ([]req, error) {
	qs, err := datagen.GenerateQueries(datagen.QueryLoadConfig{
		Queries: n, Users: len(b.Users), UserExponent: 1e-9,
		Items: len(b.Items), ItemExponent: 1.1, MaxExclude: 8,
		TimeMin: b.Grid.Origin, TimeMax: b.Grid.Origin + worldDays - 1,
		K: k, Seed: subSeed(seed, tagCold),
	})
	if err != nil {
		return nil, err
	}
	return renderRequests(b, qs), nil
}

// splitStream cuts a world at bootDays: the boot log holds the earlier
// events in generation order, the stream holds the later ones ordered
// by time and cut into append batches. Users and items that first
// appear after the cut are new to the boot bundle.
func splitStream(w *datagen.World) (boot *dataset.Interactions, batches [][]ingest.Record, err error) {
	boot = dataset.New()
	var late []dataset.Event
	for _, e := range w.Log.Events() {
		if e.Time < bootDays {
			if err := boot.Add(w.Log.UserID(e.User), w.Log.ItemID(e.Item), e.Time, e.Score); err != nil {
				return nil, nil, err
			}
			continue
		}
		late = append(late, e)
	}
	sort.SliceStable(late, func(i, j int) bool { return late[i].Time < late[j].Time })
	for lo := 0; lo < len(late); lo += appendBatch {
		hi := lo + appendBatch
		if hi > len(late) {
			hi = len(late)
		}
		batch := make([]ingest.Record, 0, hi-lo)
		for _, e := range late[lo:hi] {
			batch = append(batch, ingest.Record{
				User: w.Log.UserID(e.User), Item: w.Log.ItemID(e.Item), Time: e.Time, Score: e.Score,
			})
		}
		batches = append(batches, batch)
	}
	if len(batches) == 0 {
		return nil, nil, fmt.Errorf("no events after day %d", bootDays)
	}
	return boot, batches, nil
}

// holdout is the train_batch input: the 80 % side as the log tcamtrain
// reads, and the evaluation queries over the held-out 20 % in world
// indices, to be mapped onto whatever vocabulary the trainer interns.
type holdout struct {
	trainLog *dataset.Interactions
	world    *dataset.Interactions
	grid     dataset.TimeGrid
	queries  []eval.Query
	cells    int // training cells: the per-iteration work unit
}

func splitHoldout(seed int64, w *datagen.World) (*holdout, error) {
	cub, grid, err := w.Log.Grid(intervalDays)
	if err != nil {
		return nil, err
	}
	split := dataset.SplitPerInterval(rand.New(rand.NewSource(subSeed(seed, tagSplit))), cub, testFrac)
	h := &holdout{trainLog: dataset.New(), world: w.Log, grid: grid, cells: split.Train.NNZ()}
	for _, c := range split.Train.Cells() {
		when := grid.Origin + int64(c.T)*grid.Length
		if err := h.trainLog.Add(w.Log.UserID(int(c.U)), w.Log.ItemID(int(c.V)), when, c.Score); err != nil {
			return nil, err
		}
	}
	h.queries = eval.SampleQueries(eval.BuildQueries(split), evalQueries)
	return h, nil
}

// evalQueries maps the held-out queries onto the vocabulary of a bundle
// trained on h.trainLog. The trainer interned users and items in its
// own order, so the mapping goes by name; an item that only ever
// appeared held out is unknown to the bundle and cannot be recommended,
// so it leaves the test set.
func (h *holdout) evalQueries(b *index.Bundle) []eval.Query {
	userIdx := indexOf(b.Users)
	itemIdx := indexOf(b.Items)
	remap := func(set map[int]bool) map[int]bool {
		out := make(map[int]bool, len(set))
		for v := range set {
			if nv, ok := itemIdx[h.world.ItemID(v)]; ok {
				out[nv] = true
			}
		}
		return out
	}
	out := make([]eval.Query, 0, len(h.queries))
	for _, q := range h.queries {
		u, ok := userIdx[h.world.UserID(q.U)]
		if !ok {
			continue
		}
		test := remap(q.Test)
		if len(test) == 0 {
			continue
		}
		t := b.Grid.IntervalOf(h.grid.Origin + int64(q.T)*h.grid.Length)
		out = append(out, eval.Query{U: u, T: t, Test: test, Train: remap(q.Train)})
	}
	return out
}

func indexOf(names []string) map[string]int {
	m := make(map[string]int, len(names))
	for i, n := range names {
		m[n] = i
	}
	return m
}

// Requests generated per second of window; a stream that runs out wraps
// around, which the cold mix must not need (repeats would hit).
var streamRate = map[string]int{wServeHot: 16000, wServeCold: 8000, wServeSharded: 4000}

// serveInputs is everything a serve_* workload is given: the boot
// bundle of the shared world and the workload's request stream. The
// black-box run and the traced run both start here, which is what makes
// their inputs identical.
func serveInputs(seed int64, seconds int, workload string) (*index.Bundle, []req, error) {
	w, err := genWorld(seed, serveUsers, serveItems)
	if err != nil {
		return nil, nil, err
	}
	b, err := trainBundle(w.Log, serveK1, serveK2, bootIters, nil)
	if err != nil {
		return nil, nil, err
	}
	n := streamRate[workload] * (seconds + 2)
	var reqs []req
	switch workload {
	case wServeHot:
		reqs, err = hotRequests(seed, n, b)
	case wServeCold:
		reqs, err = coldRequests(seed, n, 50, b)
	default:
		reqs, err = coldRequests(seed, n, 10, b)
	}
	return b, reqs, err
}

// publishInputs is the same for publish_under_read: the bundle trained
// on the days before the cut, the append batches after it, and the
// reader's hot mix over the boot bundle's users.
func publishInputs(seed int64, seconds int) (*index.Bundle, [][]ingest.Record, []req, error) {
	w, err := genWorld(seed, publishUsers, publishItems)
	if err != nil {
		return nil, nil, nil, err
	}
	bootLog, batches, err := splitStream(w)
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := trainBundle(bootLog, serveK1, serveK2, bootIters, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	reqs, err := hotRequests(seed, readRate*(seconds+2), b)
	return b, batches, reqs, err
}

// trainInputs is the same for train_batch: the held-out split, with its
// 80 % side written where tcamtrain will read it.
func trainInputs(seed int64, path string) (*holdout, error) {
	w, err := genWorld(seed, trainUsers, trainItems)
	if err != nil {
		return nil, err
	}
	h, err := splitHoldout(seed, w)
	if err != nil {
		return nil, err
	}
	return h, h.trainLog.SaveJSONLFile(path)
}
