package server

import (
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/wal"
)

// promText scrapes the default (Prometheus) /metrics format.
func promText(t testing.TB, s *Server) string {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	return rec.Body.String()
}

// TestPrometheusExposition drives every hot endpoint, then checks the text
// exposition is lint-clean and carries the families the dashboards rely on:
// per-endpoint HTTP series and per-query, per-op probe histograms.
func TestPrometheusExposition(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	do(t, s, "GET", "/v1/Q/count", "", 200)
	do(t, s, "GET", "/v1/Q/access?j=0", "", 200)
	do(t, s, "GET", "/v1/Q/batch?js=0,1", "", 200)
	do(t, s, "GET", "/v1/Q/page?offset=0&limit=2", "", 200)
	do(t, s, "GET", "/v1/Q/sample?k=1&seed=1", "", 200)
	m := do(t, s, "POST", "/v1/Q/enum/start?order=enum", "", 200)
	do(t, s, "GET", "/v1/Q/enum/next?cursor="+m["cursor"].(string)+"&n=2", "", 200)
	do(t, s, "POST", "/admin/rebuild", "", 200)

	text := promText(t, s)
	if errs := obs.Lint(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("exposition fails lint: %v\nfull text:\n%s", errs, text)
	}

	for _, want := range []string{
		`renum_http_requests_total{endpoint="count"} 1`,
		`renum_http_requests_total{endpoint="access"} 1`,
		`renum_http_request_duration_seconds_bucket{endpoint="access",le="+Inf"} 1`,
		`renum_probe_duration_seconds_count{query="Q",op="access"} 1`,
		`renum_probe_duration_seconds_count{query="Q",op="count"} 1`,
		`renum_probe_duration_seconds_count{query="Q",op="batch"} 1`,
		`renum_probe_duration_seconds_count{query="Q",op="page"} 1`,
		`renum_probe_duration_seconds_count{query="Q",op="sample"} 1`,
		`renum_probe_duration_seconds_count{query="Q",op="cursor"} 1`,
		"\nrenum_generation ",
		"renum_ready 1",
		"# TYPE renum_http_request_duration_seconds histogram",
		"# TYPE renum_probe_duration_seconds histogram",
		"# TYPE renum_build_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The boot build (generation 1) and the rebuild were each observed per
	// stage and in total, labeled with the generation they published.
	_, gen := reg.Snapshot()
	for _, want := range []string{
		`renum_build_duration_seconds_count{query="Q",stage="total",generation="1"} 1`,
		fmt.Sprintf(`renum_build_duration_seconds_count{query="Q",stage="total",generation="%d"} 1`, gen),
		fmt.Sprintf(`renum_build_duration_seconds_count{query="Q",stage="index_build",generation="%d"} 1`, gen),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want,
				grepLines(text, "renum_build_duration_seconds_count"))
		}
	}
}

// TestPrometheusWALAndCompactionFamilies: an acknowledged update appears in
// the WAL append/fsync histograms, and a compaction in the compaction ones.
func TestPrometheusWALAndCompactionFamilies(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	s, reg := newTestServer(t, Config{SnapshotDir: snapDir})
	if _, _, err := reg.AttachWAL(walDir, wal.SyncAlways); err != nil {
		t.Fatal(err)
	}
	defer reg.CloseWAL()
	do(t, s, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["9","9"]}`, 200)

	text := promText(t, s)
	for _, want := range []string{
		"renum_wal_append_duration_seconds_count 1",
		"renum_wal_fsync_duration_seconds_count 1",
		"renum_wal_append_bytes_total",
		"renum_wal_depth 1",
		"renum_wal_replayed_records 0",
		"\nrenum_wal_replay_seconds ",
		"renum_wal_torn_tail_recovered 0",
		"renum_wal_rotate_warnings_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("after update, exposition missing %q\n%s", want, text)
		}
	}

	if _, _, err := reg.Compact(snapDir); err != nil {
		t.Fatal(err)
	}
	text = promText(t, s)
	for _, want := range []string{
		"renum_compaction_duration_seconds_count 1",
		"renum_compaction_records_folded_total 1",
		"renum_compactions_total 1",
		"renum_snapshot_save_duration_seconds_count 1",
		"renum_generations_published_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("after compaction, exposition missing %q\n%s", want, text)
		}
	}
	if errs := obs.Lint(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("exposition fails lint after compaction: %v", errs)
	}
}

// TestPrometheusPlanAndCacheFamilies: the planner is a row-count rule with
// no search to time, so a boot and a rebuild export no renum_plan_*
// family; the rebuild's index builds land in the build histogram instead,
// lint-clean. (The test floor pins the name; the plan-search and cache
// families it once covered are gone.)
func TestPrometheusPlanAndCacheFamilies(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	do(t, s, "POST", "/admin/rebuild", "", 200)

	text := promText(t, s)
	if errs := obs.Lint(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("exposition fails lint: %v\nfull text:\n%s", errs, text)
	}
	if strings.Contains(text, "renum_plan_") {
		t.Errorf("exposition still has a plan family\n%s", grepLines(text, "renum_plan"))
	}
	for _, want := range []string{ // generation 1 is the boot, 3 the rebuild
		`renum_build_duration_seconds_count{query="Q",stage="index_build",generation="1"} 1`,
		`renum_build_duration_seconds_count{query="U",stage="union_build",generation="1"} 1`,
		`renum_build_duration_seconds_count{query="Q",stage="index_build",generation="3"} 1`,
		`renum_build_duration_seconds_count{query="U",stage="union_build",generation="3"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, grepLines(text, "renum_build_duration_seconds_count"))
		}
	}
}

// TestBootBuildsAreObserved: the registry owns its instruments from birth, so
// the builds a daemon runs before New — its boot — reach /metrics without a
// rebuild.
func TestBootBuildsAreObserved(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	text := promText(t, s)
	if want := `renum_build_duration_seconds_count{query="Q",stage="total",generation="1"} 1`; !strings.Contains(text, want) {
		t.Errorf("exposition missing %q\n%s", want, grepLines(text, "renum_build_duration_seconds_count"))
	}
	published := 0
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "renum_generations_published_total "); ok {
			published, _ = strconv.Atoi(v)
		}
	}
	if published < 1 {
		t.Errorf("renum_generations_published_total = %d, want ≥ 1\n%s", published, grepLines(text, "renum_generations_published"))
	}
	if errs := obs.Lint(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("boot exposition fails lint: %v", errs)
	}
}

// TestMetricsScrapeHammer runs concurrent probe recording, scrapes and
// generation swaps together; meaningful mainly under -race.
func TestMetricsScrapeHammer(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch i % 4 {
				case 0:
					doRaw(s, "GET", "/v1/Q/access?j=0", "")
				case 1:
					doRaw(s, "GET", "/v1/U/count", "")
				default:
					doRaw(s, "GET", "/metrics", "")
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := reg.Rebuild(); err != nil {
				t.Errorf("rebuild: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	text := promText(t, s)
	if errs := obs.Lint(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("exposition fails lint after hammer: %v", errs)
	}
	// Rebuilt generations share the probe series with the original entries
	// (get-or-create registration), so the access counts survived the swaps.
	if !strings.Contains(text, `renum_probe_duration_seconds_count{query="Q",op="access"} 100`) {
		t.Errorf("probe counts did not survive generation swaps:\n%s",
			grepLines(text, "renum_probe_duration_seconds_count"))
	}
}

// grepLines extracts matching lines for a focused failure message.
func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return fmt.Sprint(strings.Join(out, "\n"))
}

// TestReadyz: ready by default, 503 while drained, parity on the fast loop.
func TestReadyz(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	_, addr := startFast(t, s)

	m := do(t, s, "GET", "/readyz", "", 200)
	if m["ready"] != true {
		t.Fatalf("readyz = %v", m)
	}
	if fr := fastDo(t, addr, "GET", "/readyz", "", ""); fr.status != 200 {
		t.Fatalf("fast readyz = %d (%s)", fr.status, fr.body)
	}

	s.SetReady(false)
	raw, status := doRaw(s, "GET", "/readyz", "")
	if status != 503 || !strings.Contains(string(raw), `"ready":false`) {
		t.Fatalf("drained readyz = %d %s, want 503 ready:false", status, raw)
	}
	if fr := fastDo(t, addr, "GET", "/readyz", "", ""); fr.status != 503 {
		t.Fatalf("fast drained readyz = %d", fr.status)
	}
	// Liveness is unaffected by the drain: the process is still healthy.
	do(t, s, "GET", "/healthz", "", 200)

	s.SetReady(true)
	do(t, s, "GET", "/readyz", "", 200)
}
