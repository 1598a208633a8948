package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The crash tests exercise the WAL's whole reason to exist: a daemon killed
// with SIGKILL — no drain, no persist-on-exit, no goodbye — must reboot
// into exactly the state it had acknowledged. They therefore need a real
// subprocess (an in-process run() cannot be SIGKILLed), built once per
// test binary from this package.

func buildRenumd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "renumd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// proc is a real renumd subprocess.
type proc struct {
	cmd  *exec.Cmd
	addr string
}

func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{addr: freeAddr(t)}
	p.cmd = exec.Command(bin, append([]string{"-addr", p.addr}, args...)...)
	p.cmd.Stdout = io.Discard
	p.cmd.Stderr = os.Stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		if resp, err := http.Get("http://" + p.addr + "/healthz"); err == nil {
			resp.Body.Close()
			return p
		}
		if time.Now().After(deadline) {
			t.Fatal("renumd subprocess did not come up")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill delivers SIGKILL — the crash under test — and reaps the process.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

func (p *proc) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + p.addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, b)
	}
	return string(b)
}

func (p *proc) post(t *testing.T, path, body string) string {
	t.Helper()
	resp, err := http.Post("http://"+p.addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, b)
	}
	return string(b)
}

// sweep is the byte-level probe transcript two daemons must agree on:
// count, every access position, a seeded sample, and one inverted lookup.
func (p *proc) sweep(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	count := p.get(t, "/v1/D/count")
	sb.WriteString(count)
	var n int
	if _, err := fmt.Sscanf(count, `{"count":%d`, &n); err != nil {
		t.Fatalf("count response %q: %v", count, err)
	}
	for j := 0; j < n; j++ {
		sb.WriteString(p.get(t, fmt.Sprintf("/v1/D/access?j=%d", j)))
	}
	sb.WriteString(p.get(t, "/v1/D/sample?k=5&seed=9"))
	sb.WriteString(p.post(t, "/v1/D/inverted", `{"tuple":["u0","u0"]}`))
	return sb.String()
}

var crashBootArgs = []string{
	"-table", filepath.Join("..", "..", "internal", "load", "testdata", "r.csv"),
	"-query", "D(x, y) :- r(x, y).",
	"-dynamic",
}

// applyStream sends k acknowledged updates — a mix of inserts, deletes and
// revives with values the base CSV has never seen.
func applyStream(t *testing.T, p *proc, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		v := fmt.Sprintf("u%d", i%7)
		op := "insert"
		if i%3 == 2 {
			op = "delete"
		}
		p.post(t, "/v1/D/update", fmt.Sprintf(`{"op":%q,"relation":"r","tuple":[%q,%q]}`, op, v, v))
	}
}

// TestSIGKILLLosesNoAckedUpdate: run an update stream against a WAL-enabled
// daemon, SIGKILL it mid-stream (after the k-th ack), reboot with the same
// flags, and compare the full probe transcript against an uninterrupted
// daemon that applied exactly the acknowledged prefix. Byte-identical =
// zero lost acked updates, positions and all.
func TestSIGKILLLosesNoAckedUpdate(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := buildRenumd(t)
	const acked = 17

	// Reference: never crashes, applies the same acknowledged prefix.
	refWal, refSnap := t.TempDir(), t.TempDir()
	ref := startProc(t, bin, append(crashBootArgs, "-wal-dir", refWal, "-snapshot-dir", refSnap)...)
	applyStream(t, ref, acked)
	want := ref.sweep(t)

	// Victim: same boot, same stream, then SIGKILL between acks.
	walDir, snapDir := t.TempDir(), t.TempDir()
	args := append(crashBootArgs, "-wal-dir", walDir, "-snapshot-dir", snapDir)
	victim := startProc(t, bin, args...)
	applyStream(t, victim, acked)
	victim.kill(t)

	// Reboot with the same flags: the CSV boot is deterministic, so the
	// registry lands on the same generation and finds its segment.
	reborn := startProc(t, bin, args...)
	if got := reborn.sweep(t); got != want {
		t.Fatalf("state after SIGKILL+reboot diverges from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	// The reborn daemon keeps accepting updates durably.
	reborn.post(t, "/v1/D/update", `{"op":"insert","relation":"r","tuple":["post-crash","post-crash"]}`)
}

// TestSIGKILLAfterCompaction: compaction mints generation G+1 and rotates
// the WAL; more acked updates land in the new segment; SIGKILL; a reboot
// from the snapshot directory alone must restore G+1 and replay its
// segment — and generations stay monotonic across the crash.
func TestSIGKILLAfterCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := buildRenumd(t)
	walDir, snapDir := t.TempDir(), t.TempDir()
	args := append(crashBootArgs, "-wal-dir", walDir, "-snapshot-dir", snapDir)
	victim := startProc(t, bin, args...)

	applyStream(t, victim, 9)
	genLine := victim.get(t, "/v1")
	// 9 ops, but two delete values the dictionary has never seen — those
	// are no-ops that correctly never reach the log: 7 records fold.
	compact := victim.post(t, "/admin/compact", "")
	if !strings.Contains(compact, `"folded":7`) {
		t.Fatalf("compact response %q, want 7 records folded", compact)
	}
	// Post-compaction updates land in the rotated segment.
	applyStream(t, victim, 4)
	want := victim.sweep(t)
	wantGen := victim.get(t, "/v1")
	if wantGen == genLine {
		t.Fatalf("compaction did not bump the generation: %q", wantGen)
	}
	victim.kill(t)

	// Snapshot-only reboot: no -table/-query — the compacted generation
	// plus its segment is the whole state.
	reborn := startProc(t, bin, "-wal-dir", walDir, "-snapshot-dir", snapDir)
	if got := reborn.sweep(t); got != want {
		t.Fatalf("state after compaction+SIGKILL diverges:\n%s\nvs\n%s", got, want)
	}
	if got := reborn.get(t, "/v1"); got != wantGen {
		t.Fatalf("generation after reboot = %q, want %q (monotonic across restarts)", got, wantGen)
	}
}
