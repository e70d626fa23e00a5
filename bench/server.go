package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tools are the product binaries the harness drives, built from source into
// the checkout's .bench_build directory.
type tools struct {
	root   string // checkout root
	bin    string // .bench_build/bin
	out    string // bench/out
	pdrgen string
	serve  string
}

// findRoot locates the checkout: the harness runs either from the root
// (bench/run.sh) or from bench/ (go run -C bench .).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in %s or its parent: run from the checkout root or from bench/", wd)
}

// buildTools compiles pdrgen and pdrserve exactly as a user would, with no
// flags: a build-level win belongs to the product, not to the benchmark.
func buildTools(ctx context.Context, root string) (*tools, error) {
	t := &tools{
		root: root,
		bin:  filepath.Join(root, ".bench_build", "bin"),
		out:  filepath.Join(root, "bench", "out"),
	}
	t.pdrgen = filepath.Join(t.bin, "pdrgen")
	t.serve = filepath.Join(t.bin, "pdrserve")
	for _, dir := range []string{t.bin, t.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if err := run(ctx, root, "go", "build", "-o", t.bin+string(filepath.Separator), "./cmd/pdrgen", "./cmd/pdrserve"); err != nil {
		return nil, fmt.Errorf("build pdrgen and pdrserve: %w", err)
	}
	return t, nil
}

// buildLayers compiles the traced layer probe. It is built only for traced
// runs: it imports the product's internal packages, and an internal refactor
// that breaks it must not take the end-to-end numbers down with it.
func (t *tools) buildLayers(ctx context.Context) (string, error) {
	bin := filepath.Join(t.bin, "layers")
	if err := run(ctx, filepath.Join(t.root, "bench"), "go", "build", "-o", bin, "./layers"); err != nil {
		return "", fmt.Errorf("build bench/layers: %w", err)
	}
	return bin, nil
}

// run executes a command in dir with its output on the harness's stderr.
func run(ctx context.Context, dir, name string, args ...string) error {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

// generate runs pdrgen into path.
func (t *tools) generate(ctx context.Context, n, ticks int, seed int64, path string) error {
	return run(ctx, t.root, t.pdrgen, "-n", strconv.Itoa(n), "-ticks", strconv.Itoa(ticks),
		"-seed", strconv.FormatInt(seed, 10), "-o", path)
}

// server is one pdrserve child process.
type server struct {
	cmd  *exec.Cmd
	log  *os.File
	base string // http://127.0.0.1:port
	// done is closed once the child has exited and been waited for.
	done chan struct{}
	// setup is the time from exec to the first 200 on /healthz.
	setup time.Duration
}

// startServer launches `pdrserve -data preload -addr 127.0.0.1:port` — no
// tuning flags, the defaults are what is measured — and waits until it
// answers /healthz. The child dies with ctx, with stop, and (Pdeathsig) with
// the harness itself, whichever comes first.
func (t *tools) startServer(ctx context.Context, preload, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.CommandContext(ctx, t.serve, "-data", preload, "-addr", addr)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, log: logf, base: "http://" + addr, done: make(chan struct{})}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start pdrserve: %w", err)
	}
	go func() {
		defer close(s.done)
		// A killed child reports the kill as its error; stop is the only
		// reader and has nothing to act on.
		_ = cmd.Wait()
	}()
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(begin)
				return s, nil
			}
		}
		select {
		case <-s.done:
			s.stop()
			return nil, fmt.Errorf("pdrserve exited before it became healthy (see %s)", logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(begin) > 90*time.Second {
			s.stop()
			return nil, fmt.Errorf("pdrserve not healthy after %v (see %s)", time.Since(begin).Round(time.Second), logPath)
		}
	}
}

// stop kills the child and returns once it has exited; it is safe to call
// twice.
func (s *server) stop() {
	// The error is "process already finished" at worst.
	_ = s.cmd.Process.Kill()
	<-s.done
	s.log.Close()
}

// peakRSSMB reads the child's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// freePort asks the kernel for an unused loopback port. pdrserve cannot
// report a port it picked itself, so the harness picks one and hands it over.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
