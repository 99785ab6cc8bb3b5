package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp says what hardware and build produced a result.
type stamp struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
}

func newStamp(root string, clients int) stamp {
	s := stamp{
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // the driver's checkout is not a git repository
		Clients:    clients,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	return s
}

// value is one measured number with everything -compare needs to judge
// it without BENCHMARK.json at hand.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better,omitempty"`
	Bound   float64 `json:"bound,omitempty"`
	Q1      float64 `json:"q1,omitempty"` // quartiles over the window's slices
	Q3      float64 `json:"q3,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload's outcome, as written to the out directory.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   int     `json:"seconds"`
	Trace     int     `json:"trace"`
	Stamp     stamp   `json:"stamp"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	// Metrics are the ones BENCHMARK.json names: end-to-end on an
	// untraced run, per-layer on a traced one.
	Metrics map[string]value `json:"metrics"`
	// Reported are measured and printed but carry no bound.
	Reported map[string]value `json:"reported,omitempty"`
	// Spans sums a traced run's spans by name.
	Spans []spanSummary `json:"spans,omitempty"`
	Notes []string      `json:"notes,omitempty"`
}

func newResult(workload string, seed int64, seconds, trace int, st stamp) *result {
	return &result{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Stamp: st,
		Correct: true, Metrics: map[string]value{}, Reported: map[string]value{},
	}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = value{Value: v} }
func (r *result) setSummary(name string, s summary) {
	r.Metrics[name] = value{Value: s.Value, Q1: s.Q1, Q3: s.Q3, Samples: s.Samples}
}
func (r *result) report(name, unit string, v float64) { r.Reported[name] = value{Value: v, Unit: unit} }

// flunk marks the run incorrect and says why.
func (r *result) flunk(format string, args ...interface{}) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// conform fills units, directions and bounds from the spec and insists
// that the run produced exactly the metrics its mode owes.
func (r *result) conform(spec *benchSpec) error {
	want := spec.EndToEnd
	if r.Trace != 0 {
		want = spec.PerLayer
	}
	out := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok {
			if r.Trace == 0 {
				return fmt.Errorf("%s: no value for end-to-end metric %s", r.Workload, m.Name)
			}
			v = value{} // a layer this workload never enters did no work
		}
		v.Unit, v.Better, v.Bound = m.Unit, m.Better, m.Bound
		out[m.Name] = v
	}
	for name := range r.Metrics {
		if _, ok := out[name]; !ok {
			return fmt.Errorf("%s: metric %s is not in BENCHMARK.json", r.Workload, name)
		}
	}
	r.Metrics = out
	if r.Attempted > 0 {
		r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	}
	return nil
}

// print writes the human-readable table.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (seed %d, %d s, trace %d): correct=%v attempted=%d failed=%d fail_ratio=%g\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Correct, r.Attempted, r.Failed, r.FailRatio)
	row := func(name string, v value) {
		line := fmt.Sprintf("  %-32s %14.4f %-6s", name, v.Value, v.Unit)
		if v.Q1 != 0 || v.Q3 != 0 {
			line += fmt.Sprintf("  q1=%.4f q3=%.4f", v.Q1, v.Q3)
		}
		if v.Samples > 0 {
			line += fmt.Sprintf("  n=%d", v.Samples)
		}
		fmt.Fprintln(w, line)
	}
	for _, name := range sortedKeys(r.Metrics) {
		if v := r.Metrics[name]; r.Trace == 0 || v.Value != 0 {
			row(name, v)
		}
	}
	for _, name := range sortedKeys(r.Reported) {
		row("("+name+")", r.Reported[name])
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "  %-24s %10s %12s %12s\n", "span", "calls", "total ms", "self ms")
	}
	for _, s := range r.Spans {
		fmt.Fprintf(w, "  %-24s %10d %12.2f %12.2f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// contractLine is the JSON object the driver reads from the last line
// of standard output.
func (r *result) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, v := range r.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	return json.Marshal(out)
}

func (r *result) fileName() string {
	return fmt.Sprintf("result-%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)
}

func (r *result) write(dir string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.fileName()), append(raw, '\n'), 0o644)
}
