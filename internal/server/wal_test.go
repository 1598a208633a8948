package server

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/load"
	"repro/internal/wal"
)

// sweepD enumerates the dynamic entry D position by position through the
// HTTP surface and returns the concatenated raw /access bodies — the
// byte-level answer stream two servers must agree on.
func sweepD(t *testing.T, s *Server) string {
	t.Helper()
	m := do(t, s, "GET", "/v1/D/count", "", 200)
	n := int64(m["count"].(float64))
	out := fmt.Sprintf("count=%d;", n)
	for j := int64(0); j < n; j++ {
		body, status := doRaw(s, "GET", fmt.Sprintf("/v1/D/access?j=%d", j), "")
		if status != 200 {
			t.Fatalf("access j=%d: %d %s", j, status, body)
		}
		out += string(body)
	}
	return out
}

// TestUpdateRejectsBeforeInterning is the dict-poisoning regression: an
// insert aimed at a relation the query never joins (or with the wrong
// arity) must be rejected BEFORE its values reach the append-only
// dictionary. The old handler interned first and let Insert fail after —
// an attacker looping bad inserts grew server memory without bound.
func TestUpdateRejectsBeforeInterning(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	dictLen := reg.snap.Load().db.Dict().Len()
	for i := 0; i < 100; i++ {
		// Fresh never-seen strings each round: any interning is visible.
		bad := fmt.Sprintf(`{"op":"insert","relation":"zap","tuple":["evil-%d","evil-%d"]}`, i, i)
		do(t, s, "POST", "/v1/D/update", bad, 400)
		short := fmt.Sprintf(`{"op":"insert","relation":"r","tuple":["evil-%d"]}`, i)
		do(t, s, "POST", "/v1/D/update", short, 400)
	}
	if got := reg.snap.Load().db.Dict().Len(); got != dictLen {
		t.Fatalf("rejected inserts interned %d values into the dictionary", got-dictLen)
	}
	// A well-formed insert still works and still interns.
	m := do(t, s, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["good","good"]}`, 200)
	if m["changed"] != true {
		t.Fatalf("good insert = %v", m)
	}
	if got := reg.snap.Load().db.Dict().Len(); got != dictLen+1 {
		t.Fatalf("good insert interned %d values, want 1", got-dictLen)
	}
}

// TestUpdateDuringRebuildRace drives /update and /admin/rebuild
// concurrently (run under -race). The update path must resolve the entry
// and the dictionary from ONE snapshot load — the view — so a rebuild
// publishing between two loads cannot pair an entry with another
// generation's state, and concurrent rebuilds must never corrupt either
// the retiring or the incoming index.
func TestUpdateDuringRebuildRace(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				val := fmt.Sprintf("%d-%d", g, i%7)
				body := fmt.Sprintf(`{"op":"insert","relation":"r","tuple":["%s","%s"]}`, val, val)
				if i%3 == 0 {
					body = fmt.Sprintf(`{"op":"delete","relation":"r","tuple":["%s","%s"]}`, val, val)
				}
				if resp, status := doRaw(s, "POST", "/v1/D/update", body); status != 200 {
					t.Errorf("update = %d %s", status, resp)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		do(t, s, "POST", "/admin/rebuild", "", 200)
		if _, status := doRaw(s, "GET", "/v1/D/count", ""); status != 200 {
			t.Fatalf("count during rebuild storm: %d", status)
		}
	}
	close(stop)
	wg.Wait()
	// The surviving entry still answers coherently: count equals the
	// number of accessible positions.
	sweepD(t, s)
}

// TestWALReplayRestoresUpdates: updates applied through the HTTP surface
// with a WAL attached are reproduced — byte for byte — by a fresh,
// identically-built registry attaching the same WAL directory.
func TestWALReplayRestoresUpdates(t *testing.T) {
	dir := t.TempDir()
	s1, reg1 := newTestServer(t, Config{})
	if _, _, err := reg1.AttachWAL(dir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	do(t, s1, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["7","8"]}`, 200)
	do(t, s1, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["8","9"]}`, 200)
	do(t, s1, "POST", "/v1/D/update", `{"op":"delete","relation":"r","tuple":["1","2"]}`, 200)
	// A delete of unknown values is a no-op and must NOT be logged (the
	// disk analog of dict poisoning).
	do(t, s1, "POST", "/v1/D/update", `{"op":"delete","relation":"r","tuple":["ghost","ghost"]}`, 200)
	st := reg1.WALStats()
	if !st.Attached || st.Depth != 3 {
		t.Fatalf("WAL stats after 3 effective updates = %+v", st)
	}
	want := sweepD(t, s1)
	if err := reg1.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Same boot sequence → same generation → the attach finds the segment.
	s2, reg2 := newTestServer(t, Config{})
	replayed, skipped, err := reg2.AttachWAL(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 3 || skipped != 0 {
		t.Fatalf("replayed %d skipped %d, want 3/0", replayed, skipped)
	}
	if got := sweepD(t, s2); got != want {
		t.Fatalf("replayed state diverges:\n%s\nvs\n%s", got, want)
	}
	// The replayed registry keeps logging: one more update, one more record.
	do(t, s2, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["9","1"]}`, 200)
	if st := reg2.WALStats(); st.Depth != 4 || st.Replayed != 3 || st.ReplaySeconds <= 0 {
		t.Fatalf("after post-replay update: depth %d, replayed %d in %v s; want 4, 3, > 0", st.Depth, st.Replayed, st.ReplaySeconds)
	}
}

// TestSaveSnapshotRotatesWAL: /admin/save folds every logged record into
// the saved generation, so the segment rotates empty — and a boot from
// that snapshot replays nothing yet reproduces the full state.
func TestSaveSnapshotRotatesWAL(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	cfg := Config{SnapshotDir: snapDir}
	s1, reg1 := newTestServer(t, cfg)
	if _, _, err := reg1.AttachWAL(walDir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	do(t, s1, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["7","8"]}`, 200)
	do(t, s1, "POST", "/v1/D/update", `{"op":"delete","relation":"r","tuple":["1","2"]}`, 200)
	want := sweepD(t, s1)

	do(t, s1, "POST", "/admin/save", "", 200)
	if st := reg1.WALStats(); st.Depth != 0 {
		t.Fatalf("depth after save = %d, want 0 (records folded into the snapshot)", st.Depth)
	}

	s2 := saveAndReboot(t, s1, snapDir, cfg)
	if got := sweepD(t, s2); got != want {
		t.Fatalf("state after save+reboot diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestCompactFoldsWALIntoNewGeneration exercises the full online
// compaction cycle through /admin/compact: a new snapshot generation on
// disk, the WAL rotated empty at the new generation, served answers
// byte-identical across the swap, and updates still flowing afterwards.
func TestCompactFoldsWALIntoNewGeneration(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	cfg := Config{SnapshotDir: snapDir}
	s, reg := newTestServer(t, cfg)
	if _, _, err := reg.AttachWAL(walDir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	_, gen0 := reg.Snapshot()

	// An empty segment is a no-op: no new generation minted.
	m := do(t, s, "POST", "/admin/compact", "", 200)
	if uint64(m["generation"].(float64)) != gen0 || m["folded"].(float64) != 0 {
		t.Fatalf("no-op compact = %v", m)
	}

	do(t, s, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["7","8"]}`, 200)
	do(t, s, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["8","9"]}`, 200)
	do(t, s, "POST", "/v1/D/update", `{"op":"delete","relation":"r","tuple":["7","8"]}`, 200)
	want := sweepD(t, s)

	m = do(t, s, "POST", "/admin/compact", "", 200)
	if uint64(m["generation"].(float64)) != gen0+1 || m["folded"].(float64) != 3 {
		t.Fatalf("compact = %v, want generation %d folding 3", m, gen0+1)
	}
	if got := sweepD(t, s); got != want {
		t.Fatalf("answers changed across compaction:\n%s\nvs\n%s", got, want)
	}
	st := reg.WALStats()
	if st.Depth != 0 || st.Compactions != 1 || st.Folded != 3 || st.SegmentGen != gen0+1 {
		t.Fatalf("WAL stats after compact = %+v", st)
	}
	if _, err := os.Stat(load.SnapshotPath(snapDir, gen0+1)); err != nil {
		t.Fatalf("compacted snapshot missing: %v", err)
	}
	if _, err := os.Stat(load.WALPath(walDir, gen0+1)); err != nil {
		t.Fatalf("rotated segment missing: %v", err)
	}
	if _, err := os.Stat(load.WALPath(walDir, gen0)); !os.IsNotExist(err) {
		t.Fatalf("superseded segment not removed: %v", err)
	}

	// The compacted generation keeps accepting and logging updates, and a
	// cold boot from the new snapshot + segment reproduces everything.
	do(t, s, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["5","5"]}`, 200)
	want = sweepD(t, s)
	cat, err := renum.OpenSnapshot(load.SnapshotPath(snapDir, gen0+1))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	reg2, err := NewRegistryFromCatalog(cat, CoalesceConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if replayed, _, err := reg2.AttachWAL(walDir, wal.SyncNone); err != nil || replayed != 1 {
		t.Fatalf("reboot replay = (%d, %v), want 1 record", replayed, err)
	}
	s2 := New(reg2, cfg)
	defer s2.Close()
	if got := sweepD(t, s2); got != want {
		t.Fatalf("cold boot from compacted generation diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestUpdateWithStaleViewAfterCompact is the ApplyUpdate-vs-Compact race
// regression: a handler resolves its lock-free view, a compaction publishes
// rebuilt-aside entries before the update reaches the mutex, and the update
// must land in the PUBLISHED handle. The old code applied to the superseded
// handle the view still pointed at — the acked change was invisible to
// every served read, and the next compaction (rebuilding from the served
// handle, then rotating away the segment holding the record) lost it
// permanently.
func TestUpdateWithStaleViewAfterCompact(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	cfg := Config{SnapshotDir: snapDir}
	s, reg := newTestServer(t, cfg)
	if _, _, err := reg.AttachWAL(walDir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	// One logged record so the compaction below actually mints a generation.
	do(t, s, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["7","8"]}`, 200)

	// The in-flight handler's lock-free view, resolved BEFORE the
	// compaction publishes.
	_, gen0 := reg.Snapshot()
	stale, staleDB, ok := reg.lookupViewBytes([]byte("D"))
	if !ok {
		t.Fatal("no entry D")
	}
	if _, _, err := reg.Compact(snapDir); err != nil {
		t.Fatal(err)
	}

	// The update reaches the mutex only after the swap: it must be applied
	// to the served handle, not the one the stale view captured.
	served, _ := reg.Lookup("D")
	before := served.Count()
	if changed, err := reg.ApplyUpdate(stale, staleDB, wal.OpInsert, "r", []string{"42", "42"}); err != nil || !changed {
		t.Fatalf("stale-view update = (%v, %v), want applied", changed, err)
	}
	if got := served.Count(); got != before+1 {
		t.Fatalf("served count = %d, want %d: acked update landed in the superseded handle", got, before+1)
	}
	want := sweepD(t, s)

	// And it survives the next fold plus a cold boot: the record is in the
	// rotated segment AND in the served state the next compaction rebuilds
	// from, so generation gen0+2 reproduces it with an empty WAL.
	if _, _, err := reg.Compact(snapDir); err != nil {
		t.Fatal(err)
	}
	cat, err := renum.OpenSnapshot(load.SnapshotPath(snapDir, gen0+2))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	reg2, err := NewRegistryFromCatalog(cat, CoalesceConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg2.AttachWAL(walDir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	s2 := New(reg2, cfg)
	defer s2.Close()
	if got := sweepD(t, s2); got != want {
		t.Fatalf("cold boot after stale-view update diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestCompactUnderLiveTraffic runs probes and updates full tilt while
// compactions execute (run under -race): probes must stay lock-free and
// correct across the pointer swap, and no acknowledged update may be lost.
func TestCompactUnderLiveTraffic(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	cfg := Config{SnapshotDir: snapDir}
	s, reg := newTestServer(t, cfg)
	if _, _, err := reg.AttachWAL(walDir, wal.SyncNone); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				val := fmt.Sprintf("t%d-%d", g, i%5)
				body := fmt.Sprintf(`{"op":"insert","relation":"r","tuple":["%s","%s"]}`, val, val)
				if resp, status := doRaw(s, "POST", "/v1/D/update", body); status != 200 {
					t.Errorf("update during compaction = %d %s", status, resp)
					return
				}
				if resp, status := doRaw(s, "GET", "/v1/D/access?j=0", ""); status != 200 {
					t.Errorf("probe during compaction = %d %s", status, resp)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		do(t, s, "POST", "/admin/compact", "", 200)
	}
	close(stop)
	wg.Wait()
	sweepD(t, s)
}

// TestCursorSurvivesSlowDraw is the janitor-race regression: a draw that
// outlives the TTL must neither be evicted mid-draw (its permutation
// positions would be silently lost) nor come back already expired — the
// TTL refreshes on completion, not just on admission.
func TestCursorSurvivesSlowDraw(t *testing.T) {
	store := newCursorStore[renum.Tuple](20*time.Millisecond, time.Hour)
	defer store.Shutdown()
	started := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	id := store.Start("Q", func(context.Context, int64) ([]renum.Tuple, error) {
		calls++
		if calls == 1 {
			close(started)
			<-release // a draw slower than the whole TTL
		}
		return []renum.Tuple{{0}}, nil
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := store.Next(context.Background(), id, "Q", 1); err != nil {
			t.Errorf("slow draw failed: %v", err)
		}
	}()
	<-started
	// The cursor's admission-time TTL has lapsed; the janitor must skip the
	// busy cursor rather than delete it under the consumer.
	time.Sleep(40 * time.Millisecond)
	store.evict(time.Now())
	if store.Len() != 1 {
		t.Fatal("janitor evicted a cursor mid-draw")
	}
	close(release)
	wg.Wait()

	// Completion refreshed the TTL: an immediate next draw succeeds even
	// though the admission-time deadline is long gone.
	if _, _, err := store.Next(context.Background(), id, "Q", 1); err != nil {
		t.Fatalf("draw after slow draw = %v, want success (TTL refreshed on completion)", err)
	}
	// Idle expiry still works: once the consumer stops, the janitor frees it.
	time.Sleep(40 * time.Millisecond)
	store.evict(time.Now())
	if store.Len() != 0 {
		t.Fatalf("idle expired cursor not evicted (%d live)", store.Len())
	}
}
