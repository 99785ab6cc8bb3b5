package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Workload names.
const (
	wServeHot     = "serve_hot"
	wServeCold    = "serve_cold"
	wServeSharded = "serve_sharded"
	wPublish      = "publish_under_read"
	wTrain        = "train_batch"
)

// allWorkloads is what the program can run, in the order `-workload
// all` runs them. BENCHMARK.json lists the first four: a fifth does
// not fit the driver's time cap, and train_batch is the least steady
// (README.md, "Workloads"), so it is run by hand.
var allWorkloads = []string{wServeHot, wServeCold, wServeSharded, wPublish, wTrain}

// End-to-end metric names. Every workload reports every one of them;
// README.md says what an operation is on each workload.
const (
	mSetup  = "setup_s"
	mP50    = "p50_us"
	mQPS    = "qps"
	mCPU    = "cpu_us_per_req"
	mPeakMB = "peak_rss_mb"
)

// World sizes. The serve world keeps the 20 000-item catalog that makes
// TA the larger half of a cold request; user counts are cut until data
// generation plus boot training fit a set-up that runs three times per
// invocation under the driver's time cap.
const (
	intervalDays = 3
	worldDays    = 90

	serveUsers, serveItems = 3000, 20000
	serveK1, serveK2       = 40, 24
	bootIters              = 20
	cacheEntries           = 16384 // four times the hot mix's keys; the cold mix fills it within seconds, so peak memory does not depend on how many requests a window fits
	precomputeHot          = 256
	hotUsers               = 2000 // the hot mix's user population

	publishUsers, publishItems = 3000, 8000
	bootDays                   = 60 // the boot bundle sees days [0, bootDays)
	appendBatch                = 256
	appendEvery                = 200 // ms between appends
	ingestInterval             = "50ms"
	readRate                   = 500 // open-loop reads per second
	invariantQueries           = 256

	trainUsers, trainItems = 4000, 8000
	trainK1, trainK2       = 60, 40
	trainIters             = 40
	testFrac               = 0.2
	evalQueries            = 2000

	oracleEvery  = 64 // one response in this many is checked against brute force
	maxTracedOps = 50000
	sliceCount   = 10 // the window is cut into this many slices
	setupRepeats = 3
)

// pairSlice is how long a closed-loop window stays on one side before it
// switches between the system under test and the reference server.
const pairSlice = 500 * time.Millisecond

// warmup is the untimed load before each window; it is charged to
// setup_s.
const warmup = 500 * time.Millisecond

// metricSpec is one metric as BENCHMARK.json records it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the one place names, units,
// directions and bounds are recorded.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: needs workloads, end_to_end and per_layer")
	}
	return &s, nil
}
