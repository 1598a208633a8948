package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
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

// fleet is a router over k shard daemons beside the unsharded reference. The
// shards come in two flavours: "mux" serves each daemon's net/http mux behind
// httptest (chunked replies, POST and GET alike), "fast" is what ships — the
// daemon's fast connection loop on a loopback listener, which answers the GET
// legs itself.
type fleet struct {
	ref      http.Handler // single unsharded daemon
	rt       *Router
	urls     []string
	handlers []http.Handler // each shard's own mux, bypassing the hop
	flaky    []*flakyProxy  // mux flavour only
	fast     []*fastShard   // fast flavour only
}

var flavours = []string{"mux", "fast"}

// kill takes shard i down: an injected 500 on the mux flavour, a closed
// listener (and closed connections) on the fast one.
func (f *fleet) kill(i int) {
	if f.fast != nil {
		f.fast[i].stop()
	} else {
		f.flaky[i].fail.Store(true)
	}
}

// revive brings shard i back, on the same port.
func (f *fleet) revive(t testing.TB, i int) {
	if f.fast != nil {
		f.fast[i].start(t)
	} else {
		f.flaky[i].fail.Store(false)
	}
}

// fastShard is one daemon served by its fast loop.
type fastShard struct {
	s    *server.Server
	addr string
	fs   *server.FastServer
}

func (f *fastShard) start(t testing.TB) {
	t.Helper()
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	f.addr = ln.Addr().String()
	f.fs = server.NewFastServer(f.s)
	go f.fs.Serve(ln)
}

func (f *fastShard) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	f.fs.Shutdown(ctx)
}

// boot is the order a shard daemon takes its slice in.
type boot int

const (
	sliceFirst   boot = iota // SetShardSlice, then Register: renumd -table … -shard-slice
	sliceAfter               // Register, then SetShardSlice: renumd -snapshot-dir … -shard-slice
	sliceRebuilt             // sliceAfter, then Rebuild: /admin/rebuild on a snapshot-booted shard
)

func shardServer(t testing.TB, db *renum.Database, slice, of int, b boot) *server.Server {
	t.Helper()
	reg := server.NewRegistry(db, server.CoalesceConfig{}, 0)
	setSlice := func() {
		if of > 0 {
			if err := reg.SetShardSlice(slice, of); err != nil {
				t.Fatal(err)
			}
		}
	}
	if b == sliceFirst {
		setSlice()
	}
	if _, err := reg.Register(joinQ+" "+unionQ, false); err != nil {
		t.Fatal(err)
	}
	if b != sliceFirst {
		setSlice()
	}
	if b == sliceRebuilt {
		if err := reg.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	s := server.New(reg, server.Config{})
	t.Cleanup(s.Close)
	return s
}

func shardHandler(t testing.TB, db *renum.Database, slice, of int) http.Handler {
	return shardServer(t, db, slice, of, sliceFirst).Handler()
}

func newFleet(t testing.TB, k int) *fleet { return newFleetOf(t, k, "mux") }

// newFleetOf boots k shards the CSV way (sliceFirst is the zero boot).
func newFleetOf(t testing.TB, k int, flavour string) *fleet {
	return newBootedFleet(t, flavour, make([]boot, k))
}

// newBootedFleet boots shard i of len(boots) in the order boots[i].
func newBootedFleet(t testing.TB, flavour string, boots []boot) *fleet {
	t.Helper()
	db := fixtureDB(t)
	f := &fleet{ref: shardHandler(t, db, -1, 0)}
	for i, b := range boots {
		s := shardServer(t, db, i, len(boots), b)
		f.handlers = append(f.handlers, s.Handler())
		if flavour == "fast" {
			fs := &fastShard{s: s, addr: "127.0.0.1:0"}
			fs.start(t)
			t.Cleanup(fs.stop)
			f.fast = append(f.fast, fs)
			f.urls = append(f.urls, "http://"+fs.addr)
			continue
		}
		p := &flakyProxy{h: s.Handler()}
		ts := httptest.NewServer(p)
		t.Cleanup(ts.Close)
		f.flaky = append(f.flaky, p)
		f.urls = append(f.urls, ts.URL)
	}
	f.rt = New(Config{Shards: f.urls})
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
	for _, tc := range []struct {
		name  string
		boots []boot
	}{
		{"K=1", []boot{sliceFirst}},
		{"K=2", []boot{sliceFirst, sliceFirst}},
		{"K=3", []boot{sliceFirst, sliceFirst, sliceFirst}},
		// A fleet may mix boot paths: every shard holds the same window
		// whichever way it was booted or rebuilt.
		{"K=2-mixed", []boot{sliceFirst, sliceAfter}},
		{"K=2-rebuilt", []boot{sliceRebuilt, sliceAfter}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, flavour := range flavours {
				t.Run(flavour, func(t *testing.T) { testEquivalence(t, newBootedFleet(t, flavour, tc.boots)) })
			}
		})
	}
}

func testEquivalence(t *testing.T, f *fleet) {
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
	for _, flavour := range flavours {
		t.Run(flavour, func(t *testing.T) { testCursorEquivalence(t, newFleetOf(t, 3, flavour)) })
	}
}

func testCursorEquivalence(t *testing.T, f *fleet) {
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
	for _, flavour := range flavours {
		t.Run(flavour, func(t *testing.T) { testFaultInjection(t, newFleetOf(t, 2, flavour)) })
	}
}

func testFaultInjection(t *testing.T, f *fleet) {
	n := count(t, f.rt.Handler(), "Q")
	if !f.rt.Ready() {
		t.Fatal("fleet not ready after refresh")
	}

	// An enum cursor in flight, parked 5 positions before the shard
	// boundary so its next draw must span the shard about to die.
	c0 := count(t, f.handlers[0], "Q")
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

	f.kill(1)

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
	f.revive(t, 1)
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

// stubShard is a daemon that scrapes like a healthy shard of one 3-column
// query Q and answers its row legs with whatever rows says: the shard as
// adversary (or as a fleet booted wrong).
type stubShard struct {
	count int64
	rows  func(asked int) []byte // the /batch and /page reply body
}

func (s *stubShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/readyz":
		fmt.Fprintln(w, `{"generation":1,"ready":true}`)
	case "/v1":
		fmt.Fprintln(w, `{"generation":1,"queries":["Q"]}`)
	case "/v1/Q":
		fmt.Fprintf(w, `{"name":"Q","kind":"cq","count":%d,"head":["x","y","z"],"query":"Q","capabilities":["enumerate"]}`+"\n", s.count)
	case "/v1/Q/batch":
		w.Write(s.rows(strings.Count(r.URL.Query().Get("js"), ",") + 1))
	case "/v1/Q/page":
		var n int
		fmt.Sscan(r.URL.Query().Get("limit"), &n)
		w.Write(s.rows(n))
	default:
		http.NotFound(w, r)
	}
}

// TestShardReplyChecked: on every op that moves rows, a reply that is not
// exactly the rows asked, of the query's arity, in a frame that parses, is
// the typed 502 naming the shard — never a 200 built from what arrived.
func TestShardReplyChecked(t *testing.T) {
	replies := map[string]func(asked int) []byte{
		"one row short":  func(asked int) []byte { return frame(asked-1, 3, (asked-1)*3) },
		"one row over":   func(asked int) []byte { return frame(asked+1, 3, (asked+1)*3) },
		"one cell short": func(asked int) []byte { return frame(asked, 3, asked*3-1) },
		"wrong arity":    func(asked int) []byte { return frame(asked, 2, asked*2) },
		"no rows":        func(int) []byte { return frame(0, 3, 0) },
		"not a frame":    func(int) []byte { return []byte(`{"answers":[]}`) },
	}
	for name, rows := range replies {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(&stubShard{count: 10, rows: rows})
			t.Cleanup(ts.Close)
			rt := New(Config{Shards: []string{ts.URL}})
			t.Cleanup(rt.Close)
			if err := rt.Refresh(context.Background()); err != nil {
				t.Fatal(err)
			}
			probes := []string{"/v1/Q/access?j=4", "/v1/Q/batch?js=1,2,3", "/v1/Q/page?offset=2&limit=4", "/v1/Q/sample?k=3&seed=1"}
			for _, order := range []string{"enum", "random&seed=2"} {
				probes = append(probes, "/v1/Q/enum/next?n=3&cursor="+startCursor(t, rt.Handler(), "/v1/Q/enum/start?order="+order))
			}
			for _, url := range probes {
				if err := rt.Refresh(context.Background()); err != nil {
					t.Fatal(err)
				}
				raw, code := exchange(rt.Handler(), "GET", url, "", "")
				if code != http.StatusBadGateway || !strings.Contains(string(raw), "shard "+ts.URL) {
					t.Fatalf("%s: %d %s, want a 502 naming the shard", url, code, raw)
				}
				if rt.Ready() {
					t.Fatalf("%s: router still ready after a bad reply", url)
				}
			}
		})
	}
}

// TestRouterScrapeRejectsBadCounts: a shard reporting a negative count, or
// counts that sum past int64, would wrap the prefix sums — the scrape refuses
// the table and names the shard whose count tipped it.
func TestRouterScrapeRejectsBadCounts(t *testing.T) {
	boot := func(counts ...int64) (*Router, []string) {
		var urls []string
		for _, c := range counts {
			ts := httptest.NewServer(&stubShard{count: c})
			t.Cleanup(ts.Close)
			urls = append(urls, ts.URL)
		}
		rt := New(Config{Shards: urls})
		t.Cleanup(rt.Close)
		return rt, urls
	}
	rt, urls := boot(5, -1, 5)
	if err := rt.Refresh(context.Background()); err == nil || !strings.Contains(err.Error(), "shard "+urls[1]) {
		t.Fatalf("negative count: err = %v, want one naming %s", err, urls[1])
	}
	rt, urls = boot(1<<62, 1<<62-1, 1, 1)
	err := rt.Refresh(context.Background())
	if !errors.Is(err, renum.ErrCountOverflow) || !strings.Contains(err.Error(), "shard "+urls[2]) {
		t.Fatalf("overflowing counts: err = %v, want ErrCountOverflow naming %s", err, urls[2])
	}
	if rt.Ready() {
		t.Fatal("router ready with no table")
	}
	rt, _ = boot(1<<62, 1<<62-2, 1) // exactly MaxInt64 still routes
	if err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := count(t, rt.Handler(), "Q"); got != 1<<63-1 {
		t.Fatalf("count = %d", got)
	}
}

// TestRequestIDCrossesTheHop: the client's X-Request-Id rides every shard
// leg, so one routed request leaves a trace under its id on each shard it
// touched — and a cursor draw carries the id of the request that draws.
func TestRequestIDCrossesTheHop(t *testing.T) {
	for _, flavour := range flavours {
		t.Run(flavour, func(t *testing.T) {
			f := newFleetOf(t, 2, flavour)
			n := count(t, f.ref, "Q")
			do := func(method, url, id string) []byte {
				req := httptest.NewRequest(method, url, nil)
				req.Header.Set("X-Request-Id", id)
				rec := httptest.NewRecorder()
				f.rt.Handler().ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Fatalf("%s: %d %s", url, rec.Code, rec.Body)
				}
				return rec.Body.Bytes()
			}
			// A shard files a trace once the reply is written, so the router may
			// hold the reply first: wait for the trace.
			traced := func(shard int, id string, want int) []string {
				var eps []string
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					raw, _ := exchange(f.handlers[shard], "GET", "/debug/traces?id="+id, "", "")
					var tb struct {
						Traces []struct{ ID, Endpoint string }
					}
					if err := json.Unmarshal(raw, &tb); err != nil {
						t.Fatal(err)
					}
					eps = eps[:0]
					for _, tr := range tb.Traces {
						eps = append(eps, tr.Endpoint)
					}
					if len(eps) >= want || time.Now().After(deadline) {
						return eps
					}
				}
			}
			do("GET", fmt.Sprintf("/v1/Q/batch?js=0,%d", n-1), "batch-7")
			var cb struct{ Cursor string }
			json.Unmarshal(do("POST", "/v1/Q/enum/start?order=random&seed=3", "start-8"), &cb)
			do("GET", "/v1/Q/enum/next?n=64&cursor="+cb.Cursor, "draw-9")
			for shard := range f.handlers {
				if got := traced(shard, "batch-7", 1); len(got) != 1 || got[0] != "batch" {
					t.Errorf("shard %d traces under batch-7: %v, want one batch", shard, got)
				}
				if got := traced(shard, "draw-9", 1); len(got) != 1 || got[0] != "batch" {
					t.Errorf("shard %d traces under draw-9: %v, want one batch", shard, got)
				}
				if got := traced(shard, "start-8", 0); len(got) != 0 {
					t.Errorf("shard %d traces under start-8: %v, want none", shard, got)
				}
			}
			// An id that could split a header line never reaches a shard.
			do("GET", "/v1/Q/access?j=0", "evil\r\nX-Injected: 1")
		})
	}
}

// TestLongBatchTakesPOST: a /batch whose local positions would overflow the
// shard's request-line buffer crosses as a POST, same bytes out.
func TestLongBatchTakesPOST(t *testing.T) {
	for _, flavour := range flavours {
		t.Run(flavour, func(t *testing.T) {
			f := newFleetOf(t, 2, flavour)
			n := count(t, f.ref, "Q")
			rng := rand.New(rand.NewSource(3))
			js := make([]string, 9000)
			for i := range js {
				js[i] = fmt.Sprint(rng.Int63n(n))
			}
			f.compare(t, "POST", "/v1/Q/batch", `{"js":[`+strings.Join(js, ",")+`]}`, "")
		})
	}
}

// TestHopAllocs pins what one hop allocates against fast-loop shards (the
// shards' side of the socket allocates nothing): the reply buffer per leg,
// the rows and their cell block, and the leg bookkeeping.
func TestHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	f := newFleetOf(t, 2, "fast")
	tb := f.rt.table.Load()
	src := &remote{r: f.rt, t: tb, rt: tb.queries["Q"]}
	n, split := src.Count(), tb.queries["Q"].starts[1]
	ctx := context.Background()
	js := make([]int64, 64)
	for i := range js {
		js[i] = (int64(i) * 7919) % n
	}
	pin := func(name string, limit float64, hop func() error) {
		t.Helper()
		got := testing.AllocsPerRun(200, func() {
			if err := hop(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs per hop", name, got)
		if got > limit {
			t.Errorf("%s: %.1f allocs per hop, want at most %.0f", name, got, limit)
		}
	}
	pin("Access", 3, func() error { _, err := src.Access(ctx, n/3); return err })
	pin("Batch of 64 over two shards", 8, func() error { _, err := src.Batch(ctx, js); return err })
	pin("Page of 100 across the boundary", 5, func() error { _, err := src.Page(ctx, split-50, 100); return err })
}
