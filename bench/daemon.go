package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what one benchmark process works in: the repository checkout it
// builds the programs under test from, and a scratch directory inside that
// checkout (nothing is read or written outside it).
type env struct {
	root    string // repository root (holds go.mod of module repro)
	binDir  string // <root>/.bench_build/bin
	tmpRoot string // <root>/.bench_build/tmp

	mu    sync.Mutex
	procs map[*proc]struct{}
	dirs  map[string]struct{}
}

// findRoot walks up from the working directory to the checkout of module
// repro: the directory whose go.mod says so.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

func newEnv(root string) (*env, error) {
	e := &env{
		root:    root,
		binDir:  filepath.Join(root, ".bench_build", "bin"),
		tmpRoot: filepath.Join(root, ".bench_build", "tmp"),
		procs:   make(map[*proc]struct{}),
		dirs:    make(map[string]struct{}),
	}
	for _, d := range []string{e.binDir, e.tmpRoot} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// build compiles the programs under test from source. With a warm build
// cache this is a no-op of a few hundred milliseconds; it is never part of
// a timed interval.
func (e *env) build() error {
	cmd := exec.Command("go", "build", "-o", e.binDir+string(os.PathSeparator), "./cmd/renumd", "./cmd/renum")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build ./cmd/renumd ./cmd/renum: %v\n%s", err, out)
	}
	return nil
}

// commit names the checked-out revision when the checkout is a git
// repository (the driver's is not).
func (e *env) commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (e *env) renumd() string { return filepath.Join(e.binDir, "renumd") }
func (e *env) renum() string  { return filepath.Join(e.binDir, "renum") }

// tempDir makes a scratch directory that cleanup removes.
func (e *env) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(e.tmpRoot, prefix+"-")
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.dirs[dir] = struct{}{}
	e.mu.Unlock()
	return dir, nil
}

// removeDir deletes a scratch directory made by tempDir.
func (e *env) removeDir(dir string) {
	os.RemoveAll(dir)
	e.mu.Lock()
	delete(e.dirs, dir)
	e.mu.Unlock()
}

// cleanup kills every child still running and removes every scratch
// directory. It runs on every exit path, signals included.
func (e *env) cleanup() {
	e.mu.Lock()
	procs := make([]*proc, 0, len(e.procs))
	for p := range e.procs {
		procs = append(procs, p)
	}
	dirs := make([]string, 0, len(e.dirs))
	for d := range e.dirs {
		dirs = append(dirs, d)
	}
	e.dirs = make(map[string]struct{})
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// proc is one renumd child in its own process group.
type proc struct {
	env  *env
	cmd  *exec.Cmd
	addr string        // host:port it serves on
	log  *os.File      // the child's stdout and stderr
	done chan struct{} // closed once Wait has returned
}

// logText returns what the child has printed so far.
func (p *proc) logText() string {
	data, _ := os.ReadFile(p.log.Name())
	return string(data)
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon boots renumd on a fresh loopback port with exactly the given
// flags — no tuning flag is ever added, so the daemon runs the configuration
// it ships with.
func (e *env) startDaemon(args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.CreateTemp(e.tmpRoot, "renumd-*.log")
	if err != nil {
		return nil, err
	}
	p := &proc{env: e, addr: addr, log: logFile, done: make(chan struct{})}
	p.cmd = exec.Command(e.renumd(), append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout = logFile
	p.cmd.Stderr = logFile
	// Own process group, so one signal reaches anything the child starts;
	// Pdeathsig covers the benchmark itself being killed outright.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		logFile.Close()
		os.Remove(logFile.Name())
		return nil, err
	}
	e.mu.Lock()
	e.procs[p] = struct{}{}
	e.mu.Unlock()
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// kill sends SIGKILL to the child's process group, waits for it and drops
// its log. Calling it twice is harmless.
func (p *proc) kill() {
	syscall.Kill(-p.pid(), syscall.SIGKILL)
	<-p.done
	p.env.mu.Lock()
	_, live := p.env.procs[p]
	delete(p.env.procs, p)
	p.env.mu.Unlock()
	if live {
		p.log.Close()
		os.Remove(p.log.Name())
	}
}

// waitReady polls /readyz until it answers 200, the child exits, or the
// timeout passes.
func (p *proc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &client{}
	defer c.close()
	req := []byte("GET /readyz HTTP/1.1\r\nHost: l\r\n\r\n")
	for {
		select {
		case <-p.done:
			return fmt.Errorf("renumd exited during boot:\n%s", p.logText())
		default:
		}
		if c.conn == nil {
			c.dial(p.addr)
		}
		if c.conn != nil {
			status, err := c.roundTrip(req)
			if err == nil && status == 200 {
				return nil
			}
			if err != nil {
				c.close()
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("renumd on %s not ready after %v:\n%s", p.addr, timeout, p.logText())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procStat is a reading of /proc/<pid>: CPU time consumed, context
// switches and peak resident memory.
type procStat struct {
	cpu    time.Duration
	ctxsw  int64
	hwmMiB float64
}

// clockTick is USER_HZ; Linux fixes it at 100 on every supported platform.
const clockTick = 100

func readProcStat(pid int) (procStat, error) {
	var st procStat
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th overall.
	i := bytes.LastIndexByte(stat, ')')
	fields := strings.Fields(string(stat[i+1:]))
	if len(fields) < 13 {
		return st, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	st.cpu = time.Duration(utime+stime) * time.Second / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	st.hwmMiB = float64(statusField(status, "VmHWM")) / 1024
	// Context switches are counted per thread.
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return st, err
	}
	for _, task := range tasks {
		if data, err := os.ReadFile(task); err == nil { // a thread may just have exited
			st.ctxsw += statusField(data, "voluntary_ctxt_switches") + statusField(data, "nonvoluntary_ctxt_switches")
		}
	}
	return st, nil
}

// statusField reads one numeric field of a /proc status file.
func statusField(status []byte, name string) int64 {
	for _, line := range strings.Split(string(status), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == name {
			if f := strings.Fields(v); len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}
