package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"testing"
)

// The benchmark starts its reference server by running its own
// executable with -refserver; under go test that executable is the test
// binary, so it has to play the part too.
func TestMain(m *testing.M) {
	if len(os.Args) == 5 && os.Args[1] == "-refserver" && os.Args[3] == "-refleaves" {
		if err := refServerMain(os.Args[2], os.Args[4]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// TestSmoke builds the binaries and runs every workload in both modes
// with a 1 s window. It takes about a minute, so -short
// skips it. A window this short cannot show the hot mix's hit ratio, so
// the test asks for no failed operation rather than for a correct run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real binaries for about a minute")
	}
	for _, trace := range []int{0, 1} {
		results, err := runBench(context.Background(), io.Discard,
			options{root: "..", workload: "all", seed: 1, seconds: 1, trace: trace, clients: 2, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("trace %d: %v", trace, err)
		}
		if len(results) != 5 {
			t.Fatalf("trace %d: %d results", trace, len(results))
		}
		for _, r := range results {
			if r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s trace %d: attempted %d, failed %d, notes %v", r.Workload, trace, r.Attempted, r.Failed, r.Notes)
			}
			for name, v := range r.Metrics {
				if trace == 0 && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v", r.Workload, name, v.Value)
				}
			}
		}
	}
}
