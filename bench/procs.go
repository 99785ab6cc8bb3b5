package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// binaries are the programs under test, built from the checkout.
var binaries = []string{"tcamserver", "tcamshard", "tcamtrain"}

// env is one invocation's world outside the process: where the
// binaries are, a scratch directory that goes away on exit, and every
// child it has started.
type env struct {
	root string // repository checkout
	bin  string // built binaries
	tmp  string // scratch, removed by close

	mu    sync.Mutex
	procs []*proc
}

func newEnv(root string) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(build, "bin")}
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	e.tmp = tmp
	return e, nil
}

// buildBinaries compiles the programs under test into e.bin. The go
// tool's own cache makes a repeat build cheap; its time is never part
// of a metric.
func (e *env) buildBinaries(ctx context.Context) error {
	args := []string{"build", "-o", e.bin + string(os.PathSeparator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build in %s: %w", e.root, err)
	}
	return nil
}

// close stops and reaps every child still running and removes the
// scratch directory. It is safe to call more than once.
func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	if e.tmp != "" {
		os.RemoveAll(e.tmp)
	}
}

// dir makes a fresh subdirectory of the scratch directory.
func (e *env) dir(prefix string) (string, error) { return os.MkdirTemp(e.tmp, prefix+"-") }

// proc is one child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string // file holding its stdout+stderr
	done chan struct{}
	once sync.Once
}

// start launches a built binary. Its output goes to a file so that a
// chatty child can never block on a full pipe.
func (e *env) start(name string, args ...string) (*proc, error) {
	return e.startPath(filepath.Join(e.bin, name), name, args...)
}

// startPath launches any executable the same way; the reference server
// is this program itself.
func (e *env) startPath(path, name string, args ...string) (*proc, error) {
	logf, err := os.CreateTemp(e.tmp, name+"-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	logf.Close() // the child holds its own descriptor
	p := &proc{name: name, cmd: cmd, log: logf.Name(), done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant once we asked it to stop
		close(p.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop asks the child to drain, kills it if it does not, and returns
// only once it has been reaped.
func (p *proc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(3 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	})
}

// exited reports whether the child has already gone.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// logTail returns the end of the child's output, for error messages.
func (p *proc) logTail() string {
	raw, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}

// freeAddr finds a free loopback port by binding :0 and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// clockTick is the unit of utime/stime in /proc/<pid>/stat; USER_HZ is
// 100 on every Linux port Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime is the user+system CPU time the process has consumed.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS is the process's resident-set high-water mark in MiB.
func peakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// sumOver totals a /proc reading over the server-side processes.
func sumOver[T time.Duration | float64](procs []*proc, read func(pid int) (T, error)) (T, error) {
	var total T
	for _, p := range procs {
		v, err := read(p.pid())
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// health is the part of a /healthz payload the benchmark reads; a
// coordinator's payload fills only Status.
type health struct {
	Status string `json:"status"`
	Ingest *struct {
		LogOffset int64 `json:"log_offset"`
		LogEnd    int64 `json:"log_end"`
		Lag       int64 `json:"lag"`
	} `json:"ingest"`
	Cache *struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Stale  uint64 `json:"stale"`
	} `json:"cache"`
}

func getHealth(ctx context.Context, hc *http.Client, base string) (*health, error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	var h health
	if err := json.Unmarshal(raw, &h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return &h, nil
}

// waitHealthy polls /healthz until ok reports true, the child dies or
// the deadline passes.
func waitHealthy(ctx context.Context, hc *http.Client, p *proc, base string, timeout time.Duration, ok func(*health) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if h, err := getHealth(ctx, hc, base); err == nil && h.Status == "ok" && (ok == nil || ok(h)) {
			return nil
		}
		if p.exited() {
			return fmt.Errorf("%s exited during start-up:\n%s", p.name, p.logTail())
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s:\n%s", p.name, timeout, p.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newHTTPClient is a keep-alive client with room for conns connections
// to one host and the 1 s budget after which an operation has failed.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
