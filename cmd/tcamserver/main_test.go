package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"tcam/internal/ingest"
	"tcam/internal/testfixture"
)

// quiet is the logger tests hand run: records are built and dropped.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// testArgs is a command line over a small saved bundle on an ephemeral
// port, with extra appended.
func testArgs(t *testing.T, extra ...string) []string {
	t.Helper()
	return append([]string{
		"-bundle", testfixture.Saved(t, 6, 5), "-addr", "127.0.0.1:0", "-drain-timeout", "5s",
		"-max-inflight", "64", "-max-inflight-batch", "8",
	}, extra...)
}

// startRun launches run in a goroutine and returns the bound address
// and the error channel. The onReady hook guarantees signal handling is
// wired before the test fires any signal at the process.
func startRun(t *testing.T, args []string) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, quiet, func(addr string) { ready <- addr }) }()
	select {
	case addr := <-ready:
		return addr, done
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
		return "", nil
	}
}

// stopRun sends the process SIGTERM and waits for run to drain cleanly.
func stopRun(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v, want clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
}

// Every flag the frozen benchmark passes (bench/e2e.go) builds a server
// that serves.
func TestBuildServerServes(t *testing.T) {
	addr, done := startRun(t, testArgs(t, "-cache-entries", "64", "-precompute-hot", "2",
		"-ingest-log", t.TempDir(), "-ingest-interval", "50ms"))
	resp, err := http.Get("http://" + addr + "/recommend?user=user2&time=3&k=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
	stopRun(t, done)
}

func TestBuildServerErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no bundle path":  {"-addr", "127.0.0.1:0"},
		"missing bundle":  {"-bundle", filepath.Join(t.TempDir(), "missing")},
		"a removed flag":  testArgs(t, "-fold-iters", "3"),
		"a removed flag2": testArgs(t, "-read-timeout", "5s"),
	} {
		if err := run(args, quiet, nil); err == nil {
			t.Errorf("%s: run accepted %v", name, args)
		}
	}
}

// SIGTERM must drain and exit cleanly; /readyz flips to 503 before the
// listener closes (probed implicitly by run's StartDrain ordering).
func TestRunSIGTERMGracefulShutdown(t *testing.T) {
	addr, done := startRun(t, testArgs(t))
	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before shutdown: status %d", resp.StatusCode)
	}
	stopRun(t, done)
}

// TestRunContinuousIngestion is the end-to-end acceptance test for the
// streaming loop: a producer process (here, a second ingest.Log handle)
// appends events while tcamserver runs, and the background updater must
// publish at least three successive snapshot generations — growing the
// user base, the catalog, and the time grid mid-flight — all while the
// HTTP surface keeps answering. SIGTERM at the end also exercises the
// updater goroutine join in run (stopRun hangs if it is not joined).
func TestRunContinuousIngestion(t *testing.T) {
	logDir := t.TempDir()
	addr, done := startRun(t, testArgs(t, "-ingest-log", logDir, "-ingest-interval", "10ms"))

	type ingestBody struct {
		LogOffset int64   `json:"log_offset"`
		LogEnd    int64   `json:"log_end"`
		Lag       int64   `json:"lag"`
		Staleness float64 `json:"staleness_seconds"`
	}
	type healthBody struct {
		Version   uint64      `json:"version"`
		Users     int         `json:"users"`
		Items     int         `json:"items"`
		Intervals int         `json:"intervals"`
		Ingest    *ingestBody `json:"ingest"`
	}
	health := func() healthBody {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h healthBody
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// waitCaughtUp polls until the serving snapshot reflects the whole
	// log (offset == want, lag == 0). Exact version numbers are not
	// asserted — a poll tick may split one append batch into two
	// generations — only that versions strictly grow across waves.
	waitCaughtUp := func(want int64) healthBody {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			h := health()
			if h.Ingest != nil && h.Ingest.LogOffset == want && h.Ingest.Lag == 0 {
				return h
			}
			if time.Now().After(deadline) {
				t.Fatalf("snapshot never caught up to offset %d: %+v ingest=%+v", want, h, h.Ingest)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	recommend := func(query string) int {
		resp, err := http.Get("http://" + addr + "/recommend?" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	boot := health()
	if boot.Version != 1 || boot.Users != 6 || boot.Items != 5 || boot.Intervals != 5 {
		t.Fatalf("boot health = %+v", boot)
	}
	if boot.Ingest == nil {
		t.Fatal("/healthz has no ingest object with -ingest-log set")
	}

	producer, err := ingest.Open(logDir)
	if err != nil {
		t.Fatal(err)
	}

	// Wave 1: a brand-new user rates items from the boot catalog.
	if _, err := producer.Append(
		ingest.Record{User: "newcomer", Item: "item-2", Time: 1, Score: 2},
		ingest.Record{User: "newcomer", Item: "item-4", Time: 3, Score: 1},
	); err != nil {
		t.Fatal(err)
	}
	gen2 := waitCaughtUp(2)
	if gen2.Version <= boot.Version || gen2.Users != 7 || gen2.Items != 5 || gen2.Intervals != 5 {
		t.Fatalf("after wave 1: %+v", gen2)
	}
	if code := recommend("user=newcomer&time=3&k=3"); code != http.StatusOK {
		t.Fatalf("/recommend for folded-in user = %d", code)
	}

	// Wave 2: a new item arrives at a time past the boot grid's last
	// edge, growing both the catalog and the interval count.
	if _, err := producer.Append(ingest.Record{User: "user1", Item: "item-fresh", Time: 7, Score: 3}); err != nil {
		t.Fatal(err)
	}
	gen3 := waitCaughtUp(3)
	if gen3.Version <= gen2.Version || gen3.Users != 7 || gen3.Items != 6 || gen3.Intervals != 8 {
		t.Fatalf("after wave 2: %+v", gen3)
	}

	// Wave 3: the folded-in user keeps interacting, including with the
	// streamed item at a streamed interval.
	if _, err := producer.Append(ingest.Record{User: "newcomer", Item: "item-fresh", Time: 8, Score: 2}); err != nil {
		t.Fatal(err)
	}
	gen4 := waitCaughtUp(4)
	if gen4.Version <= gen3.Version || gen4.Users != 7 || gen4.Items != 6 {
		t.Fatalf("after wave 3: %+v", gen4)
	}
	if gen4.Version < 4 {
		t.Fatalf("served %d generations, want at least 4 (boot + 3 published)", gen4.Version)
	}
	if code := recommend("user=newcomer&time=8&k=3"); code != http.StatusOK {
		t.Fatalf("/recommend at streamed interval = %d", code)
	}

	stopRun(t, done)
}

// SIGHUP must hot-swap the bundle (version bump in /healthz) without
// interrupting service, then SIGTERM still drains cleanly.
func TestRunSIGHUPReloads(t *testing.T) {
	addr, done := startRun(t, testArgs(t))
	version := func() uint64 {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Version uint64 `json:"version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Version
	}
	if v := version(); v != 1 {
		t.Fatalf("boot version = %d, want 1", v)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	// Reload is asynchronous to signal delivery: poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for version() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("bundle version did not reach 2 after SIGHUP")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get("http://" + addr + "/recommend?user=user2&time=3&k=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("recommend after reload: status %d", resp.StatusCode)
	}
	stopRun(t, done)
}
