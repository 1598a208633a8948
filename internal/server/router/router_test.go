package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/wire"
)

// The equivalence suite boots a real fleet — K shard daemons (each a full
// internal/server over a SetShardSlice registry) behind one Router — next to
// a single unsharded reference daemon over the same database, then
// byte-compares every probe body. This is the in-process version of the CI
// shard-smoke job's transcript diff.

const (
	joinQ  = "Q(x, y, z) :- r(x, y), s(y, z)."
	unionQ = "U(x, y) :- r(x, y). U(x, y) :- s(x, y)."
)

// fixtureDB synthesizes a join instance big enough that every K in the suite
// gets non-trivial slices (a few thousand join answers, skewed keys).
func fixtureDB(t testing.TB) *renum.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var r, s strings.Builder
	r.WriteString("a,b\n")
	s.WriteString("b,c\n")
	for i := 0; i < 240; i++ {
		fmt.Fprintf(&r, "k%d,v%d\n", rng.Intn(40), rng.Intn(25))
		fmt.Fprintf(&s, "v%d,w%d\n", rng.Intn(25), rng.Intn(30))
	}
	db := renum.NewDatabase()
	if err := load.CSV(db, "r", strings.NewReader(r.String())); err != nil {
		t.Fatal(err)
	}
	if err := load.CSV(db, "s", strings.NewReader(s.String())); err != nil {
		t.Fatal(err)
	}
	return db
}

// flakyProxy wraps one shard's handler with a switchable injected fault, so
// tests can kill and revive a shard without tearing down its listener.
type flakyProxy struct {
	h    http.Handler
	fail atomic.Bool
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.fail.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte("{\"error\":\"injected fault\"}\n"))
		return
	}
	p.h.ServeHTTP(w, r)
}

type fleet struct {
	ref    http.Handler // single unsharded daemon
	rt     *Router
	urls   []string
	flaky  []*flakyProxy
	shards []*httptest.Server
}

func shardHandler(t testing.TB, db *renum.Database, slice, of int) http.Handler {
	t.Helper()
	reg := server.NewRegistry(db, server.CoalesceConfig{}, 0)
	if of > 0 {
		// Before Register, like renumd -shard-slice: CQs build 1/K indexes.
		if err := reg.SetShardSlice(slice, of); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Register(joinQ+" "+unionQ, false); err != nil {
		t.Fatal(err)
	}
	s := server.New(reg, server.Config{})
	t.Cleanup(s.Close)
	return s.Handler()
}

func newFleet(t testing.TB, k int) *fleet {
	t.Helper()
	db := fixtureDB(t)
	f := &fleet{ref: shardHandler(t, db, -1, 0)}
	for i := 0; i < k; i++ {
		p := &flakyProxy{h: shardHandler(t, db, i, k)}
		ts := httptest.NewServer(p)
		t.Cleanup(ts.Close)
		f.flaky = append(f.flaky, p)
		f.shards = append(f.shards, ts)
		f.urls = append(f.urls, ts.URL)
	}
	f.rt = New(Config{Shards: f.urls, Client: &http.Client{Timeout: 10 * time.Second}})
	t.Cleanup(f.rt.Close)
	if err := f.rt.Refresh(context.Background()); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	return f
}

func exchange(h http.Handler, method, url, body, accept string) ([]byte, int) {
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, url, rd)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Body.Bytes(), rec.Code
}

// compare issues the same request to the reference daemon and the router and
// requires byte-identical bodies and equal status codes.
func (f *fleet) compare(t *testing.T, method, url, body, accept string) []byte {
	t.Helper()
	want, wantCode := exchange(f.ref, method, url, body, accept)
	got, gotCode := exchange(f.rt.Handler(), method, url, body, accept)
	if gotCode != wantCode {
		t.Fatalf("%s %s: router status %d (%s), reference %d (%s)", method, url, gotCode, got, wantCode, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s %s: router body %q != reference %q", method, url, got, want)
	}
	return got
}

func count(t testing.TB, h http.Handler, query string) int64 {
	t.Helper()
	raw, code := exchange(h, "GET", "/v1/"+query+"/count", "", "")
	if code != 200 {
		t.Fatalf("count %s: status %d (%s)", query, code, raw)
	}
	var m struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m.Count
}

func TestRouterEquivalence(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			f := newFleet(t, k)
			n := count(t, f.ref, "Q")
			if n < 100 {
				t.Fatalf("fixture too small: %d answers", n)
			}
			if got := count(t, f.rt.Handler(), "Q"); got != n {
				t.Fatalf("router count %d, reference %d", got, n)
			}

			f.compare(t, "GET", "/v1/Q/count", "", "")
			f.compare(t, "GET", "/v1/U/count", "", "")

			for _, j := range []int64{0, 1, n / 3, n / 2, n - 1} {
				f.compare(t, "GET", fmt.Sprintf("/v1/Q/access?j=%d", j), "", "")
			}
			f.compare(t, "GET", "/v1/U/access?j=3", "", "")

			// Batches: duplicates, cross-shard scatter, GET and POST, both
			// formats on the client edge.
			js := fmt.Sprintf("0,5,%d,%d,3,3,%d", n-1, n/2, n/4)
			f.compare(t, "GET", "/v1/Q/batch?js="+js, "", "")
			f.compare(t, "GET", "/v1/Q/batch?js=%201%20,%202%20,,4", "", "")
			f.compare(t, "POST", "/v1/Q/batch", fmt.Sprintf(`{"js":[%s]}`, js), "")
			f.compare(t, "GET", "/v1/Q/batch?js="+js, "", wire.ContentType)
			f.compare(t, "GET", "/v1/U/batch?js=0,9,4", "", "")

			// Negotiation and parameter decoding are the daemon's own: a
			// weighted media type among others opts in, optional whitespace is
			// SP/HTAB only (a no-break space is part of the token), and the
			// first of a repeated parameter wins.
			f.compare(t, "GET", "/v1/Q/batch?js="+js, "", "text/plain, "+wire.ContentType+";q=0.5")
			f.compare(t, "GET", "/v1/Q/batch?js="+js, "", "\u00a0"+wire.ContentType)
			f.compare(t, "GET", "/v1/Q/access?j=1&j=2", "", "")
			f.compare(t, "GET", "/v1/Q/page?offset=3&offset=0&limit=2&limit=9", "", "")

			// Pages: inside one shard, crossing boundaries, overshooting
			// tails, past the end, empty.
			for _, pg := range [][2]int64{{0, 10}, {n/2 - 3, 9}, {n - 4, 100}, {n + 5, 10}, {0, 0}, {0, n}} {
				url := fmt.Sprintf("/v1/Q/page?offset=%d&limit=%d", pg[0], pg[1])
				f.compare(t, "GET", url, "", "")
				f.compare(t, "GET", url, "", wire.ContentType)
			}
			f.compare(t, "GET", "/v1/U/page?offset=2&limit=11", "", "")

			// Seeded samples consume the rng exactly like the library's lazy
			// Fisher–Yates prefix, so same seed = same bytes.
			f.compare(t, "GET", "/v1/Q/sample?k=7&seed=42", "", "")
			f.compare(t, "GET", "/v1/Q/sample?k=0&seed=1", "", "")
			f.compare(t, "GET", fmt.Sprintf("/v1/Q/sample?k=%d&seed=9", n+10), "", "")
			f.compare(t, "GET", "/v1/U/sample?k=5&seed=13", "", "")

			// Tuple probes: take known answers off the reference, plus misses.
			raw, _ := exchange(f.ref, "GET", fmt.Sprintf("/v1/Q/access?j=%d", n/2), "", "")
			var ab struct {
				Answer []string `json:"answer"`
			}
			if err := json.Unmarshal(raw, &ab); err != nil {
				t.Fatal(err)
			}
			hit, _ := json.Marshal(map[string][]string{"tuple": ab.Answer})
			f.compare(t, "POST", "/v1/Q/contains", string(hit), "")
			f.compare(t, "POST", "/v1/Q/inverted", string(hit), "")
			miss := `{"tuple":["nope","nope","nope"]}`
			f.compare(t, "POST", "/v1/Q/contains", miss, "")
			f.compare(t, "POST", "/v1/Q/inverted", miss, "")

			// Error vocabulary: out-of-range, bad input, unsupported.
			f.compare(t, "GET", fmt.Sprintf("/v1/Q/access?j=%d", n), "", "")
			f.compare(t, "GET", fmt.Sprintf("/v1/Q/batch?js=0,%d", n), "", "")
			f.compare(t, "POST", "/v1/U/inverted", `{"tuple":["a","b"]}`, "")
			f.compare(t, "GET", "/v1/Q/enum/next?cursor=bogus", "", "")
			if _, code := exchange(f.rt.Handler(), "POST", "/v1/Q/update", `{"op":"insert","relation":"r","tuple":["9","9"]}`, ""); code != http.StatusNotImplemented {
				t.Fatalf("router update status %d, want 501", code)
			}
			if _, code := exchange(f.rt.Handler(), "GET", "/v1/Nope/count", "", ""); code != http.StatusNotFound {
				t.Fatalf("unknown query status %d, want 404", code)
			}
		})
	}
}

// startCursor starts an enumeration cursor and returns its id.
func startCursor(t *testing.T, h http.Handler, url string) string {
	t.Helper()
	raw, code := exchange(h, "POST", url, "", "")
	if code != 200 {
		t.Fatalf("start %s: status %d (%s)", url, code, raw)
	}
	var cb struct {
		Cursor string `json:"cursor"`
	}
	if err := json.Unmarshal(raw, &cb); err != nil {
		t.Fatal(err)
	}
	return cb.Cursor
}

// drainCursors drives the same-order cursors on the reference daemon and the
// router in lockstep and requires byte-identical draw bodies.
func drainCursors(t *testing.T, f *fleet, startURL string, n int64, accept string) {
	t.Helper()
	refID := startCursor(t, f.ref, startURL)
	rtID := startCursor(t, f.rt.Handler(), startURL)
	for step := 0; step < 10000; step++ {
		url := fmt.Sprintf("/v1/Q/enum/next?cursor=%s&n=%d", refID, n)
		want, wantCode := exchange(f.ref, "GET", url, "", accept)
		url = fmt.Sprintf("/v1/Q/enum/next?cursor=%s&n=%d", rtID, n)
		got, gotCode := exchange(f.rt.Handler(), "GET", url, "", accept)
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("%s draw %d: router %d %q, reference %d %q", startURL, step, gotCode, got, wantCode, want)
		}
		if accept == wire.ContentType {
			h, _, err := wire.Parse(got)
			if err != nil {
				t.Fatal(err)
			}
			if h.Flags&wire.FlagDone != 0 {
				return
			}
		} else {
			var db struct {
				Done bool `json:"done"`
			}
			if err := json.Unmarshal(got, &db); err != nil {
				t.Fatal(err)
			}
			if db.Done {
				return
			}
		}
	}
	t.Fatalf("%s: cursor never finished", startURL)
}

func TestRouterCursorEquivalence(t *testing.T) {
	f := newFleet(t, 3)
	drainCursors(t, f, "/v1/Q/enum/start", 64, "")
	drainCursors(t, f, "/v1/Q/enum/start?order=enum", 7, wire.ContentType)
	drainCursors(t, f, "/v1/Q/enum/start?order=random&seed=5", 64, "")
	drainCursors(t, f, "/v1/Q/enum/start?order=random&seed=99", 17, "")

	// Explicit close works and a second close is a 404.
	id := startCursor(t, f.rt.Handler(), "/v1/Q/enum/start")
	if raw, code := exchange(f.rt.Handler(), "DELETE", "/v1/Q/enum?cursor="+id, "", ""); code != 200 {
		t.Fatalf("close: %d (%s)", code, raw)
	}
	if _, code := exchange(f.rt.Handler(), "DELETE", "/v1/Q/enum?cursor="+id, "", ""); code != http.StatusNotFound {
		t.Fatalf("double close: %d, want 404", code)
	}
}

// TestRouterFaultInjection kills one shard mid-fleet and checks the honest
// degradation contract: typed 502 naming the shard, /readyz 503, cursors
// resuming cleanly after recovery.
func TestRouterFaultInjection(t *testing.T) {
	f := newFleet(t, 2)
	n := count(t, f.rt.Handler(), "Q")
	if !f.rt.Ready() {
		t.Fatal("fleet not ready after refresh")
	}

	// An enum cursor in flight, parked 5 positions before the shard
	// boundary so its next draw must span the shard about to die.
	c0 := count(t, f.flaky[0], "Q")
	if c0 < 10 || n-c0 < 10 {
		t.Fatalf("degenerate split: %d/%d", c0, n-c0)
	}
	refID := startCursor(t, f.ref, "/v1/Q/enum/start")
	rtID := startCursor(t, f.rt.Handler(), "/v1/Q/enum/start")
	draw := func(h http.Handler, id string, k int64) ([]byte, int) {
		return exchange(h, "GET", fmt.Sprintf("/v1/Q/enum/next?cursor=%s&n=%d", id, k), "", "")
	}
	want1, _ := draw(f.ref, refID, c0-5)
	got1, _ := draw(f.rt.Handler(), rtID, c0-5)
	if !bytes.Equal(got1, want1) {
		t.Fatalf("pre-fault draw: %q != %q", got1, want1)
	}

	f.flaky[1].fail.Store(true)

	// A batch spanning both shards fails as a 502 that names the daemon.
	raw, code := exchange(f.rt.Handler(), "GET", fmt.Sprintf("/v1/Q/batch?js=0,%d", n-1), "", "")
	if code != http.StatusBadGateway {
		t.Fatalf("batch during fault: status %d (%s), want 502", code, raw)
	}
	if !strings.Contains(string(raw), "shard "+f.urls[1]) {
		t.Fatalf("fault body %q does not name shard %s", raw, f.urls[1])
	}

	// The fault flipped readiness, honestly.
	if f.rt.Ready() {
		t.Fatal("router still ready after shard fault")
	}
	if raw, code := exchange(f.rt.Handler(), "GET", "/readyz", "", ""); code != http.StatusServiceUnavailable || !strings.Contains(string(raw), `"ready":false`) {
		t.Fatalf("readyz during fault: %d (%s), want 503 not-ready", code, raw)
	}

	// A shard-0-only probe still answers (position 0 lives on shard 0).
	if raw, code := exchange(f.rt.Handler(), "GET", "/v1/Q/access?j=0", "", ""); code != 200 {
		t.Fatalf("healthy-shard access during fault: %d (%s)", code, raw)
	}

	// A cursor draw that needs the dead shard fails without advancing...
	if raw, code := draw(f.rt.Handler(), rtID, 10); code != http.StatusBadGateway {
		t.Fatalf("draw during fault: %d (%s), want 502", code, raw)
	}

	// ...and recovery is a scrape away. The retried draw returns exactly the
	// window the failed draw would have.
	f.flaky[1].fail.Store(false)
	if err := f.rt.Refresh(context.Background()); err != nil {
		t.Fatalf("recovery refresh: %v", err)
	}
	if !f.rt.Ready() {
		t.Fatal("router not ready after recovery")
	}
	want2, _ := draw(f.ref, refID, 10)
	got2, code := draw(f.rt.Handler(), rtID, 10)
	if code != 200 || !bytes.Equal(got2, want2) {
		t.Fatalf("post-recovery draw: %d %q, want %q", code, got2, want2)
	}
	f.compare(t, "GET", fmt.Sprintf("/v1/Q/batch?js=0,%d", n-1), "", "")
}

// TestRouterScrapeRejectsTornFleet boots shards with mismatched query sets
// and checks the router refuses the table instead of serving torn answers.
func TestRouterScrapeRejectsTornFleet(t *testing.T) {
	db := fixtureDB(t)
	reg := server.NewRegistry(db, server.CoalesceConfig{}, 0)
	if err := reg.SetShardSlice(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(joinQ, false); err != nil { // missing U
		t.Fatal(err)
	}
	s := server.New(reg, server.Config{})
	t.Cleanup(s.Close)
	odd := httptest.NewServer(s.Handler())
	t.Cleanup(odd.Close)

	full := httptest.NewServer(shardHandler(t, db, 1, 2))
	t.Cleanup(full.Close)

	rt := New(Config{Shards: []string{full.URL, odd.URL}})
	t.Cleanup(rt.Close)
	err := rt.Refresh(context.Background())
	if err == nil {
		t.Fatal("refresh accepted a torn fleet")
	}
	if !strings.Contains(err.Error(), "shard "+odd.URL) {
		t.Fatalf("torn-fleet error %q does not name the odd shard", err)
	}
	if rt.Ready() {
		t.Fatal("router ready with no table")
	}
	if _, code := exchange(rt.Handler(), "GET", "/v1/Q/count", "", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("probe with no table: %d, want 503", code)
	}
}

// TestRouterHammer races scatter-gather traffic against routing-table
// refreshes and an injected fault flap; run under -race this is the
// concurrency gate for the router's atomic table swap and health flips.
func TestRouterHammer(t *testing.T) {
	f := newFleet(t, 3)
	n := count(t, f.rt.Handler(), "Q")
	stop := make(chan struct{})
	var wg, churn sync.WaitGroup

	churn.Add(1)
	go func() { // table churn
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.rt.Refresh(context.Background())
			}
		}
	}()
	churn.Add(1)
	go func() { // health flap
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				f.flaky[2].fail.Store(false)
				return
			default:
				f.flaky[2].fail.Store(i%4 == 0)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				var url string
				switch i % 4 {
				case 0:
					url = fmt.Sprintf("/v1/Q/access?j=%d", rng.Int63n(n))
				case 1:
					url = fmt.Sprintf("/v1/Q/batch?js=%d,%d,%d", rng.Int63n(n), rng.Int63n(n), rng.Int63n(n))
				case 2:
					url = fmt.Sprintf("/v1/Q/page?offset=%d&limit=17", rng.Int63n(n))
				case 3:
					url = fmt.Sprintf("/v1/Q/sample?k=5&seed=%d", rng.Int63())
				}
				raw, code := exchange(f.rt.Handler(), "GET", url, "", "")
				// Faults are injected, so 502 is legal; anything else must
				// be a clean 200.
				if code != 200 && code != http.StatusBadGateway {
					t.Errorf("%s: status %d (%s)", url, code, raw)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	// After the dust settles the fleet heals and equivalence still holds.
	if err := f.rt.Refresh(context.Background()); err != nil {
		t.Fatalf("final refresh: %v", err)
	}
	f.compare(t, "GET", "/v1/Q/page?offset=0&limit=50", "", "")
}
