package main

// Workload-file support: `-users @load.jsonl` reads a query stream
// produced by `tcamgen -queries` — one {"user","time","k","exclude"}
// object per line, the batch API's query shape — and runs it as one
// batch, locally or remotely. Each record carries its own time, k and
// exclude list; the corresponding flags only fill in fields a record
// leaves at zero.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"tcam/internal/api"
)

// workloadRef reports whether a -users value names a workload file
// rather than an inline comma-separated list.
func workloadRef(users string) (string, bool) {
	path, ok := strings.CutPrefix(users, "@")
	return path, ok
}

// loadWorkload decodes a JSONL workload file into batch queries,
// defaulting each record's missing time/k/exclude from the flags.
func loadWorkload(path string, when int64, k int, exclude []string) ([]api.Query, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; close error carries no signal
	var out []api.Query
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var q api.Query
		if err := json.Unmarshal([]byte(raw), &q); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if q.User == "" {
			return nil, fmt.Errorf("%s:%d: query has no user", path, line)
		}
		if q.Time == 0 {
			q.Time = when
		}
		if q.K == 0 {
			q.K = k
		}
		if q.Exclude == nil {
			q.Exclude = exclude
		}
		out = append(out, q)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: workload file has no queries", path)
	}
	return out, nil
}
