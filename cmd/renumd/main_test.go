package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// freeAddr reserves a localhost port and releases it for the daemon (the
// tiny reuse race is acceptable in tests).
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// lockedBuffer is the daemon's stdout/stderr: run writes it from its own
// goroutine while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon drives run() in a goroutine against a real socket.
type daemon struct {
	addr string
	out  lockedBuffer
	done chan int
}

func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{addr: freeAddr(t), done: make(chan int, 1)}
	full := append([]string{"-addr", d.addr}, args...)
	go func() { d.done <- run(full, &d.out, &d.out) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := http.Get("http://" + d.addr + "/healthz"); err == nil {
			resp.Body.Close()
			return d
		}
		select {
		case code := <-d.done:
			t.Fatalf("daemon exited %d before serving: %s", code, d.out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon did not come up: %s", d.out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop sends the process SIGTERM (caught by the daemon's NotifyContext) and
// returns run's exit code.
func (d *daemon) stop(t *testing.T) int {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-d.done:
		return code
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit: %s", d.out.String())
		return -1
	}
}

func (d *daemon) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, b)
	}
	return string(b)
}

// TestPersistOnExitRoundTripsState is the satellite's contract end to end:
// boot from CSVs with -persist-on-exit, SIGTERM (graceful drain, exit 0,
// snapshot written), boot a second daemon from the snapshot directory alone
// — no -table, no -query — and observe byte-identical answers.
func TestPersistOnExitRoundTripsState(t *testing.T) {
	dir := t.TempDir()
	tableArgs := []string{
		"-table", filepath.Join("..", "..", "internal", "load", "testdata", "r.csv"),
		"-table", filepath.Join("..", "..", "internal", "load", "testdata", "s.csv"),
	}
	d1 := startDaemon(t, append(tableArgs,
		"-query", "Q(x, y, z) :- r(x, y), s(y, z).",
		"-snapshot-dir", dir, "-persist-on-exit")...)

	count1 := d1.get(t, "/v1/Q/count")
	var access1 [6]string
	for j := range access1 {
		access1[j] = d1.get(t, fmt.Sprintf("/v1/Q/access?j=%d", j))
	}
	batch1 := d1.get(t, "/v1/Q/batch?js=0,5,3")

	if code := d1.stop(t); code != 0 {
		t.Fatalf("first daemon exit %d: %s", code, d1.out.String())
	}
	if !strings.Contains(d1.out.String(), "renumd: saved ") {
		t.Fatalf("no save line in output: %s", d1.out.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 || !strings.HasPrefix(ents[0].Name(), "gen-") {
		t.Fatalf("snapshot dir after exit: %v (%v)", ents, err)
	}

	// Second life: snapshot only.
	d2 := startDaemon(t, "-snapshot-dir", dir)
	if !strings.Contains(d2.out.String(), "renumd: restored snapshot ") {
		t.Fatalf("no restore line: %s", d2.out.String())
	}
	if got := d2.get(t, "/v1/Q/count"); got != count1 {
		t.Fatalf("count after restart: %q vs %q", got, count1)
	}
	for j := range access1 {
		if got := d2.get(t, fmt.Sprintf("/v1/Q/access?j=%d", j)); got != access1[j] {
			t.Fatalf("access j=%d after restart: %q vs %q", j, got, access1[j])
		}
	}
	if got := d2.get(t, "/v1/Q/batch?js=0,5,3"); got != batch1 {
		t.Fatalf("batch after restart: %q vs %q", got, batch1)
	}
	if code := d2.stop(t); code != 0 {
		t.Fatalf("second daemon exit %d: %s", code, d2.out.String())
	}
}

// TestPersistOnExitRequiresDir pins the usage error.
func TestPersistOnExitRequiresDir(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-persist-on-exit"}, &out, &out); code != 2 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
}

// TestWALFlagValidation pins the WAL flag usage errors: a bad fsync policy
// and a compactor without the directories it folds between.
func TestWALFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-wal-fsync", "sometimes"},
		{"-compact-every", "1s"},
		{"-compact-every", "1s", "-wal-dir", "w"},
		{"-compact-every", "1s", "-snapshot-dir", "s"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &out); code != 2 {
			t.Fatalf("run(%v) = %d, want usage error 2: %s", args, code, out.String())
		}
	}
}

// TestRouterListeningLineNamesFleet: the router's listening line reports the
// fleet it routes — the -shard count, or the -shards-from file it re-reads.
func TestRouterListeningLineNamesFleet(t *testing.T) {
	file := filepath.Join(t.TempDir(), "shards.txt")
	if err := os.WriteFile(file, []byte("http://"+freeAddr(t)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards-from", file}, "(shards from " + file + ")"},
		{[]string{"-shard", "http://" + freeAddr(t), "-shard", "http://" + freeAddr(t)}, "(2 shards)"},
	} {
		d := startDaemon(t, append([]string{"-router", "-shard-refresh", "1h"}, c.args...)...)
		if want := "renumd: router listening on " + d.addr + " " + c.want; !strings.Contains(d.out.String(), want) {
			t.Errorf("router output lacks %q:\n%s", want, d.out.String())
		}
		if code := d.stop(t); code != 0 {
			t.Fatalf("router exit %d: %s", code, d.out.String())
		}
	}
}
