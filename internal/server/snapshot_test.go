package server

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/load"
)

// saveAndReboot saves the server's current generation into dir and boots a
// second server from the newest snapshot there, returning it with its
// catalog held open for the test's lifetime.
func saveAndReboot(t *testing.T, s *Server, dir string, cfg Config) *Server {
	t.Helper()
	m := do(t, s, "POST", "/admin/save", "", 200)
	path, _ := m["saved"].(string)
	if path == "" {
		t.Fatalf("save response = %v", m)
	}
	latest, _, ok, err := load.LatestSnapshot(dir)
	if err != nil || !ok || latest != path {
		t.Fatalf("LatestSnapshot = (%q, %v, %v), saved %q", latest, ok, err, path)
	}
	cat, err := renum.OpenSnapshot(latest)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	reg, err := NewRegistryFromCatalog(cat, CoalesceConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(reg, cfg)
	t.Cleanup(s2.Close)
	return s2
}

// TestAdminSaveAndBootFromSnapshot pins the daemon's restart contract: the
// probe surface of a server booted from a saved snapshot is byte-identical
// to the server that saved it — count, every access position, batches,
// cursors — including dynamic entries, which persist their base contents
// and come back updatable.
func TestAdminSaveAndBootFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SnapshotDir: dir}
	s1, _ := newTestServer(t, cfg)

	m := do(t, s1, "POST", "/admin/save", "", 200)
	if got := fmt.Sprint(m["skipped"]); got != "[]" {
		t.Fatalf("skipped = %v, want none (dynamic entries snapshot now)", got)
	}

	s2 := saveAndReboot(t, s1, dir, cfg)

	// The dynamic entry survives the reboot, position for position, and is
	// still updatable afterwards.
	d1 := do(t, s1, "GET", "/v1/D/count", "", 200)
	d2 := do(t, s2, "GET", "/v1/D/count", "", 200)
	if d1["count"] != d2["count"] {
		t.Fatalf("D count: %v vs %v", d1["count"], d2["count"])
	}
	for j := int64(0); j < int64(d1["count"].(float64)); j++ {
		url := fmt.Sprintf("/v1/D/access?j=%d", j)
		a1, st1 := doRaw(s1, "GET", url, "")
		a2, st2 := doRaw(s2, "GET", url, "")
		if st1 != 200 || st2 != 200 || string(a1) != string(a2) {
			t.Fatalf("D access j=%d: %d %s vs %d %s", j, st1, a1, st2, a2)
		}
	}
	upd := do(t, s2, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["9","9"]}`, 200)
	if upd["changed"] != true {
		t.Fatalf("restored D rejects updates: %v", upd)
	}

	for _, name := range []string{"Q", "U"} {
		c1 := do(t, s1, "GET", "/v1/"+name+"/count", "", 200)
		c2 := do(t, s2, "GET", "/v1/"+name+"/count", "", 200)
		if c1["count"] != c2["count"] {
			t.Fatalf("%s count: %v vs %v", name, c1["count"], c2["count"])
		}
		n := int64(c1["count"].(float64))
		for j := int64(0); j < n; j++ {
			url := fmt.Sprintf("/v1/%s/access?j=%d", name, j)
			a1, st1 := doRaw(s1, "GET", url, "")
			a2, st2 := doRaw(s2, "GET", url, "")
			if st1 != 200 || st2 != 200 || string(a1) != string(a2) {
				t.Fatalf("%s access j=%d: %d %s vs %d %s", name, j, st1, a1, st2, a2)
			}
		}
		b1, _ := doRaw(s1, "GET", "/v1/"+name+"/batch?js=0,2,1,0", "")
		b2, _ := doRaw(s2, "GET", "/v1/"+name+"/batch?js=0,2,1,0", "")
		if string(b1) != string(b2) {
			t.Fatalf("%s batch: %s vs %s", name, b1, b2)
		}
		sm1, _ := doRaw(s1, "GET", "/v1/"+name+"/sample?k=3&seed=5", "")
		sm2, _ := doRaw(s2, "GET", "/v1/"+name+"/sample?k=3&seed=5", "")
		if string(sm1) != string(sm2) {
			t.Fatalf("%s sample: %s vs %s", name, sm1, sm2)
		}
	}

	// Cursor sessions over the restored entry drain the same sequence.
	c1 := do(t, s1, "POST", "/v1/Q/enum/start?order=enum", "", 200)
	c2 := do(t, s2, "POST", "/v1/Q/enum/start?order=enum", "", 200)
	n1, _ := doRaw(s1, "GET", "/v1/Q/enum/next?cursor="+c1["cursor"].(string)+"&n=4", "")
	n2, _ := doRaw(s2, "GET", "/v1/Q/enum/next?cursor="+c2["cursor"].(string)+"&n=4", "")
	if string(n1) != string(n2) {
		t.Fatalf("cursor draw: %s vs %s", n1, n2)
	}

	// Contains parses through the restored dictionary (lazy reverse map).
	ct1, _ := doRaw(s1, "POST", "/v1/Q/contains", `{"tuple":["1","2","x"]}`)
	ct2, _ := doRaw(s2, "POST", "/v1/Q/contains", `{"tuple":["1","2","x"]}`)
	if string(ct1) != string(ct2) {
		t.Fatalf("contains: %s vs %s", ct1, ct2)
	}
}

// TestSnapshotGenerationsPersistMonotonically: generations keep counting
// across save/boot cycles — a rebooted daemon's first publish supersedes
// every generation the previous process saved.
func TestSnapshotGenerationsPersistMonotonically(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SnapshotDir: dir}
	s1, _ := newTestServer(t, cfg)

	g1 := uint64(do(t, s1, "GET", "/v1", "", 200)["generation"].(float64))
	s2 := saveAndReboot(t, s1, dir, cfg)
	g2 := uint64(do(t, s2, "GET", "/v1", "", 200)["generation"].(float64))
	if g2 != g1 {
		t.Fatalf("rebooted generation = %d, saved %d", g2, g1)
	}

	// An admin write on the rebooted server advances past the restored
	// generation, and a second save lands under the new number.
	do(t, s2, "POST", "/admin/load", `{"name":"extra","csv":"a,b\n9,9\n"}`, 200)
	g3 := uint64(do(t, s2, "GET", "/v1", "", 200)["generation"].(float64))
	if g3 != g1+1 {
		t.Fatalf("post-write generation = %d, want %d", g3, g1+1)
	}
	do(t, s2, "POST", "/admin/save", "", 200)
	latest, gen, ok, err := load.LatestSnapshot(dir)
	if err != nil || !ok || gen != g3 {
		t.Fatalf("LatestSnapshot after second save = (%q, %d, %v, %v), want gen %d", latest, gen, ok, err, g3)
	}
}

// TestRebootedServerRebuildsAndUpdates: a snapshot-booted registry is not a
// dead end — new tables load beside the frozen snapshot relations, and
// Rebuild recompiles the restored entries against the refreshed database
// (reading, never writing, the mapped columns).
func TestRebootedServerRebuildsAndUpdates(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SnapshotDir: dir}
	s1, _ := newTestServer(t, cfg)
	s2 := saveAndReboot(t, s1, dir, cfg)

	before := do(t, s2, "GET", "/v1/Q/count", "", 200)["count"]

	// Replace r with a superset (the original rows plus one new join row),
	// rebuild, and the count must grow.
	newR := rCSV + "9,9\n"
	do(t, s2, "POST", "/admin/load", fmt.Sprintf(`{"name":"r","csv":%q}`, newR), 200)
	do(t, s2, "POST", "/admin/load", `{"name":"s","csv":"`+strings.ReplaceAll(sCSV, "\n", `\n`)+`9,z\n"}`, 200)
	do(t, s2, "POST", "/admin/rebuild", "", 200)

	after := do(t, s2, "GET", "/v1/Q/count", "", 200)["count"]
	if after.(float64) <= before.(float64) {
		t.Fatalf("rebuild after reboot: count %v -> %v, want growth", before, after)
	}

	// And the rebuilt (heap) entries can be saved again.
	do(t, s2, "POST", "/admin/save", "", 200)
}

// TestAdminSaveWithoutDirIs400 pins the diagnostic when saving is not
// configured.
func TestAdminSaveWithoutDirIs400(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	raw, status := doRaw(s, "POST", "/admin/save", "")
	if status != 400 || !strings.Contains(string(raw), "snapshot-dir") {
		t.Fatalf("save without dir = %d %s", status, raw)
	}
}
