package tcam

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestBenchSnapshotsShareSchema holds the three micro-benchmark
// snapshots to the one schema scripts/bench.sh writes, so a recorder
// cannot fork it again: a stamped header with no other fields, records
// that name their benchmark, package and GOMAXPROCS, and no record run
// at more procs than the recording host had CPUs — a scaling curve the
// host could not have produced.
func TestBenchSnapshotsShareSchema(t *testing.T) {
	for _, path := range []string{"BENCH_query.json", "BENCH_train.json", "BENCH_ingest.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			CPUs       int               `json:"cpus"`
			Go         string            `json:"go"`
			Commit     string            `json:"commit"`
			Benchmarks []json.RawMessage `json:"benchmarks"`
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&snap); err != nil {
			t.Errorf("%s: header: %v", path, err)
			continue
		}
		if snap.CPUs < 1 || snap.Go == "" || snap.Commit == "" || len(snap.Benchmarks) == 0 {
			t.Errorf("%s: header needs cpus, go, commit and benchmarks; got cpus=%d go=%q commit=%q with %d records",
				path, snap.CPUs, snap.Go, snap.Commit, len(snap.Benchmarks))
		}
		for i, rawRec := range snap.Benchmarks {
			// Further keys are the units go test printed, one per metric.
			var rec struct {
				Name       string  `json:"name"`
				Package    string  `json:"package"`
				GOMAXPROCS int     `json:"gomaxprocs"`
				NsPerOp    float64 `json:"ns_per_op"`
			}
			if err := json.Unmarshal(rawRec, &rec); err != nil {
				t.Errorf("%s: record %d: %v", path, i, err)
				continue
			}
			if rec.Name == "" || rec.Package == "" || rec.GOMAXPROCS < 1 || rec.NsPerOp <= 0 {
				t.Errorf("%s: record %d needs name, package, gomaxprocs and ns_per_op: %s", path, i, rawRec)
			}
			if rec.GOMAXPROCS > snap.CPUs {
				t.Errorf("%s: %s ran at gomaxprocs %d on a %d-CPU host", path, rec.Name, rec.GOMAXPROCS, snap.CPUs)
			}
		}
	}
}
