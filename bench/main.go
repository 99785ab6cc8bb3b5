// Command tcambench is the repository's benchmark: it builds the real
// binaries, generates every input from -seed, drives the binaries from
// outside (or, with -trace 1, replays the same inputs in-process with a
// span around every call into a layer), checks every answer and prints
// every metric BENCHMARK.json names. See README.md.
//
// Usage (through run.sh, which builds this program first):
//
//	bash bench/run.sh [-workload all|<name>] [-seed 1] [-seconds 10] [-trace 0|1]
//	bash bench/run.sh -compare <dir-or-file> [<dir-or-file>]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// hardTimeout bounds one workload, under the driver's 180 s limit.
const hardTimeout = 170 * time.Second

// options are one invocation's flags.
type options struct {
	root     string
	workload string // a workload name, or all
	seed     int64
	seconds  int // 0 means run_seconds of BENCHMARK.json
	trace    int
	clients  int
	outDir   string // "" means <root>/bench/out
}

func main() {
	var opt options
	flag.StringVar(&opt.root, "root", ".", "repository checkout (run.sh passes it)")
	flag.StringVar(&opt.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&opt.seconds, "seconds", 0, "measured window in seconds (0 = run_seconds of BENCHMARK.json)")
	flag.IntVar(&opt.trace, "trace", 0, "0: black-box run, end-to-end metrics; 1: in-process traced run, per-layer metrics")
	flag.IntVar(&opt.clients, "clients", 2, "closed-loop client goroutines")
	flag.StringVar(&opt.outDir, "out", "", "result directory (default <root>/bench/out)")
	compare := flag.Bool("compare", false, "compare result sets: -compare A [B], each a directory or file")
	refAddr := flag.String("refserver", "", "internal: serve the reference server on this address until SIGTERM")
	refLeaves := flag.String("refleaves", "", "internal: with -refserver, comma-separated leaf reference servers to fan out to")
	flag.Parse()
	if *refAddr != "" {
		if err := refServerMain(*refAddr, *refLeaves); err != nil {
			fmt.Fprintln(os.Stderr, "tcambench: reference server:", err)
			os.Exit(1)
		}
		return
	}
	if *compare {
		os.Exit(compareMain(flag.Args()))
	}
	// SIGINT/SIGTERM cancel the context; every child is then stopped and
	// reaped before runBench returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	results, err := runBench(ctx, os.Stdout, opt)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcambench:", err)
		os.Exit(1)
	}
	for _, r := range results {
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "tcambench: %s produced wrong answers; see its notes\n", r.Workload)
			os.Exit(1)
		}
	}
}

// runBench runs the chosen workloads one after another. For each it
// prints the table of metrics and then, on a line of its own, the JSON
// object the driver reads; the results are also written to opt.outDir.
// An error means a run could not be completed; wrong answers are
// reported through result.Correct.
func runBench(ctx context.Context, stdout io.Writer, opt options) ([]*result, error) {
	root, err := filepath.Abs(opt.root)
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	seconds := opt.seconds
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	if opt.trace != 0 && opt.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", opt.trace)
	}
	if opt.clients < 1 || opt.clients > runtime.NumCPU() {
		return nil, fmt.Errorf("-clients %d: this machine has %d CPUs, and a load generator with more goroutines than CPUs measures its own queueing", opt.clients, runtime.NumCPU())
	}
	var workloads []string
	for _, w := range allWorkloads {
		if opt.workload == "all" || opt.workload == w {
			workloads = append(workloads, w)
		}
	}
	if len(workloads) == 0 {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	outDir := opt.outDir
	if outDir == "" {
		outDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	e, err := newEnv(root)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := e.buildBinaries(ctx); err != nil {
		return nil, err
	}
	st := newStamp(root, opt.clients)
	var results []*result
	for _, w := range workloads {
		res := newResult(w, opt.seed, seconds, opt.trace, st)
		wctx, cancel := context.WithTimeout(ctx, hardTimeout)
		r := &run{ctx: wctx, env: e, seed: opt.seed, seconds: seconds, clients: opt.clients, res: res}
		if opt.trace == 0 {
			err = r.blackBox(w)
		} else {
			err = r.traced(w, outDir)
		}
		if err == nil {
			err = wctx.Err()
		}
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("%s: hard timeout of %s exceeded", w, hardTimeout)
		}
		if err != nil {
			return nil, err
		}
		if err := res.conform(spec); err != nil {
			return nil, err
		}
		if err := res.write(outDir); err != nil {
			return nil, err
		}
		res.print(stdout)
		line, err := res.contractLine()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		results = append(results, res)
	}
	return results, nil
}
