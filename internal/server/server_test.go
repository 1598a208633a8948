package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/load"
)

// rCSV/sCSV mirror the internal/load fixtures:
//
//	r = {(1,2),(1,3),(2,3),(3,1)}   s = {(2,x),(3,y),(3,z),(1,w)}
//
// The tests assert server responses against the library's own probes on the
// same entries rather than hand-counted answers.
const (
	rCSV = "a,b\n1,2\n1,3\n2,3\n3,1\n"
	sCSV = "b,c\n2,x\n3,y\n3,z\n1,w\n"

	joinQ  = "Q(x, y, z) :- r(x, y), s(y, z)."
	unionQ = "U(x, y) :- r(x, y). U(x, y) :- s(x, y)."
	dynQ   = "D(x, y) :- r(x, y)."
)

// newTestServer builds a server over the fixture with a CQ, a UCQ and a
// dynamic entry registered.
func newTestServer(t testing.TB, cfg Config) (*Server, *Registry) {
	t.Helper()
	db := renum.NewDatabase()
	if err := load.CSV(db, "r", strings.NewReader(rCSV)); err != nil {
		t.Fatal(err)
	}
	if err := load.CSV(db, "s", strings.NewReader(sCSV)); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(db, CoalesceConfig{}, 0)
	if _, err := reg.Register(joinQ+" "+unionQ, false); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(dynQ, true); err != nil {
		t.Fatal(err)
	}
	s := New(reg, cfg)
	t.Cleanup(s.Close)
	return s, reg
}

// renderTuple maps a tuple through the registry's current dictionary (test
// convenience; handlers use their per-request view instead).
func renderTuple(reg *Registry, t renum.Tuple) []string {
	db, _ := reg.Snapshot()
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = db.Dict().String(v)
	}
	return out
}

// do issues one request against the handler and decodes the JSON response.
func do(t testing.TB, s *Server, method, url, body string, wantStatus int) map[string]any {
	t.Helper()
	raw, status := doRaw(s, method, url, body)
	if status != wantStatus {
		t.Fatalf("%s %s = %d, want %d (body %s)", method, url, status, wantStatus, raw)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
	}
	return m
}

func doRaw(s *Server, method, url, body string) ([]byte, int) {
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, url, rd)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Body.Bytes(), rec.Code
}

func TestMetaAndCount(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	e, _ := reg.Lookup("Q")
	n := e.Count()
	if n == 0 {
		t.Fatal("fixture join is empty")
	}

	m := do(t, s, "GET", "/v1", "", 200)
	if got := fmt.Sprint(m["queries"]); got != "[D Q U]" {
		t.Fatalf("queries = %s", got)
	}

	m = do(t, s, "GET", "/v1/Q", "", 200)
	if m["kind"] != "cq" || int64(m["count"].(float64)) != n {
		t.Fatalf("meta = %v", m)
	}
	m = do(t, s, "GET", "/v1/U", "", 200)
	if m["kind"] != "ucq" {
		t.Fatalf("meta U = %v", m)
	}
	m = do(t, s, "GET", "/v1/D", "", 200)
	if m["kind"] != "dynamic" {
		t.Fatalf("meta D = %v", m)
	}

	m = do(t, s, "GET", "/v1/Q/count", "", 200)
	if int64(m["count"].(float64)) != n {
		t.Fatalf("count = %v, want %d", m["count"], n)
	}

	do(t, s, "GET", "/v1/nope/count", "", 404)
}

func TestAccessMatchesLibrary(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	for _, name := range []string{"Q", "U", "D"} {
		e, _ := reg.Lookup(name)
		for j := int64(0); j < e.Count(); j++ {
			want, err := e.H.Access(j)
			if err != nil {
				t.Fatal(err)
			}
			m := do(t, s, "GET", fmt.Sprintf("/v1/%s/access?j=%d", name, j), "", 200)
			got := m["answer"].([]any)
			for i, v := range want {
				if got[i] != renderTuple(reg, renum.Tuple{v})[0] {
					t.Fatalf("%s access(%d) = %v, want %v", name, j, got, want)
				}
			}
		}
		do(t, s, "GET", fmt.Sprintf("/v1/%s/access?j=%d", name, e.Count()), "", 400)
		do(t, s, "GET", "/v1/"+name+"/access?j=-1", "", 400)
		do(t, s, "GET", "/v1/"+name+"/access?j=zap", "", 400)
	}
}

func TestBatchAndPage(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	e, _ := reg.Lookup("Q")
	n := e.Count()

	// GET and POST bodies produce the same answers as per-position access.
	get := do(t, s, "GET", "/v1/Q/batch?js=0,2,1,2", "", 200)
	post := do(t, s, "POST", "/v1/Q/batch", `{"js":[0,2,1,2]}`, 200)
	if fmt.Sprint(get["answers"]) != fmt.Sprint(post["answers"]) {
		t.Fatalf("GET %v != POST %v", get["answers"], post["answers"])
	}
	answers := get["answers"].([]any)
	if len(answers) != 4 {
		t.Fatalf("got %d answers, want 4", len(answers))
	}
	if fmt.Sprint(answers[1]) != fmt.Sprint(answers[3]) {
		t.Fatal("duplicate positions must yield equal answers")
	}

	// The full page equals the full batch.
	js := make([]string, n)
	for i := range js {
		js[i] = fmt.Sprint(i)
	}
	batch := do(t, s, "GET", "/v1/Q/batch?js="+strings.Join(js, ","), "", 200)
	page := do(t, s, "GET", fmt.Sprintf("/v1/Q/page?offset=0&limit=%d", n), "", 200)
	if fmt.Sprint(batch["answers"]) != fmt.Sprint(page["answers"]) {
		t.Fatal("page != batch over the same positions")
	}

	// Tail clamping: a page past the end is empty, not an error.
	m := do(t, s, "GET", fmt.Sprintf("/v1/Q/page?offset=%d&limit=5", n+3), "", 200)
	if len(m["answers"].([]any)) != 0 {
		t.Fatalf("past-the-end page = %v", m["answers"])
	}

	do(t, s, "GET", "/v1/Q/batch?js=0,99999", "", 400)
	do(t, s, "GET", "/v1/Q/page?offset=-1&limit=5", "", 400)
}

func TestSampleDeterministicWithSeed(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, name := range []string{"Q", "U", "D"} {
		a, _ := doRaw(s, "GET", "/v1/"+name+"/sample?k=3&seed=7", "")
		b, _ := doRaw(s, "GET", "/v1/"+name+"/sample?k=3&seed=7", "")
		if string(a) != string(b) {
			t.Fatalf("%s: same seed, different samples: %s vs %s", name, a, b)
		}
	}
	m := do(t, s, "GET", "/v1/Q/sample?k=3&seed=7", "", 200)
	if len(m["answers"].([]any)) != 3 {
		t.Fatalf("sample = %v", m["answers"])
	}
	do(t, s, "GET", "/v1/Q/sample?k=-1", "", 400)
}

func TestContainsAndInverted(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	e, _ := reg.Lookup("Q")
	want, err := e.H.Access(0)
	if err != nil {
		t.Fatal(err)
	}
	cells := renderTuple(reg, want)
	quoted, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"tuple":%s}`, quoted)

	m := do(t, s, "POST", "/v1/Q/contains", body, 200)
	if m["contains"] != true {
		t.Fatalf("contains(%v) = %v", cells, m)
	}
	m = do(t, s, "POST", "/v1/Q/inverted", body, 200)
	if m["found"] != true || int64(m["j"].(float64)) != 0 {
		t.Fatalf("inverted(%v) = %v", cells, m)
	}

	// A value the dictionary has never seen cannot be an answer.
	m = do(t, s, "POST", "/v1/Q/contains", `{"tuple":["nope","nope","nope"]}`, 200)
	if m["contains"] != false {
		t.Fatalf("contains(unknown) = %v", m)
	}
	m = do(t, s, "POST", "/v1/Q/inverted", `{"tuple":["nope","nope","nope"]}`, 200)
	if m["found"] != false {
		t.Fatalf("inverted(unknown) = %v", m)
	}

	// Arity mismatch and malformed bodies are client errors.
	do(t, s, "POST", "/v1/Q/contains", `{"tuple":["1"]}`, 400)
	do(t, s, "POST", "/v1/Q/contains", `{"tup`, 400)

	// Inverted access is undefined on unions.
	do(t, s, "POST", "/v1/U/inverted", `{"tuple":["1","2"]}`, 501)
}

func TestCursorLifecycle(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	e, _ := reg.Lookup("Q")
	n := e.Count()

	// Deterministic cursor: draining in pages reproduces the batch order.
	m := do(t, s, "POST", "/v1/Q/enum/start?order=enum", "", 200)
	id := m["cursor"].(string)
	var got []string
	for {
		m = do(t, s, "GET", "/v1/Q/enum/next?cursor="+id+"&n=2", "", 200)
		for _, a := range m["answers"].([]any) {
			got = append(got, fmt.Sprint(a))
		}
		if m["done"] == true {
			break
		}
	}
	if int64(len(got)) != n {
		t.Fatalf("cursor drained %d answers, want %d", len(got), n)
	}
	js := make([]string, n)
	for i := range js {
		js[i] = fmt.Sprint(i)
	}
	batch := do(t, s, "GET", "/v1/Q/batch?js="+strings.Join(js, ","), "", 200)
	for i, a := range batch["answers"].([]any) {
		if got[i] != fmt.Sprint(a) {
			t.Fatalf("cursor[%d] = %s, want %s", i, got[i], fmt.Sprint(a))
		}
	}

	// A drained cursor is gone.
	do(t, s, "GET", "/v1/Q/enum/next?cursor="+id+"&n=1", "", 404)

	// Random cursor: same seed reproduces the permutation; the drain covers
	// every answer exactly once.
	m = do(t, s, "POST", "/v1/Q/enum/start?order=random&seed=5", "", 200)
	id = m["cursor"].(string)
	m = do(t, s, "GET", fmt.Sprintf("/v1/Q/enum/next?cursor=%s&n=%d", id, n+1), "", 200)
	perm := m["answers"].([]any)
	if int64(len(perm)) != n || m["done"] != true {
		t.Fatalf("random drain = %d answers done=%v, want %d done", len(perm), m["done"], n)
	}
	seen := map[string]bool{}
	for _, a := range perm {
		seen[fmt.Sprint(a)] = true
	}
	if int64(len(seen)) != n {
		t.Fatalf("permutation repeated answers: %d distinct of %d", len(seen), n)
	}

	// Close drops a live cursor.
	m = do(t, s, "POST", "/v1/Q/enum/start?order=enum", "", 200)
	id = m["cursor"].(string)
	do(t, s, "DELETE", "/v1/Q/enum?cursor="+id, "", 200)
	do(t, s, "GET", "/v1/Q/enum/next?cursor="+id+"&n=1", "", 404)

	// A cursor is scoped to the query it was started on: presenting it under
	// another query's path (or an unregistered one) is an unknown cursor.
	m = do(t, s, "POST", "/v1/Q/enum/start?order=enum", "", 200)
	id = m["cursor"].(string)
	do(t, s, "GET", "/v1/U/enum/next?cursor="+id+"&n=1", "", 404)
	do(t, s, "GET", "/v1/nope/enum/next?cursor="+id+"&n=1", "", 404)
	do(t, s, "DELETE", "/v1/U/enum?cursor="+id, "", 404)
	do(t, s, "GET", "/v1/Q/enum/next?cursor="+id+"&n=1", "", 200) // still alive under Q
	do(t, s, "DELETE", "/v1/Q/enum?cursor="+id, "", 200)

	// Cursors on dynamic entries are rejected; bad order too.
	do(t, s, "POST", "/v1/D/enum/start", "", 501)
	do(t, s, "POST", "/v1/Q/enum/start?order=zigzag", "", 400)
	do(t, s, "GET", "/v1/Q/enum/next?cursor=bogus&n=1", "", 404)
}

func TestCursorTTLEviction(t *testing.T) {
	store := newCursorStore[renum.Tuple](10*time.Millisecond, time.Hour)
	id := store.Start("Q", func(context.Context, int64) ([]renum.Tuple, error) { return nil, nil })
	if store.Len() != 1 {
		t.Fatal("cursor not registered")
	}
	// Lazy expiry: after the TTL, Next refuses even before the janitor runs.
	time.Sleep(20 * time.Millisecond)
	if _, _, err := store.Next(context.Background(), id, "Q", 1); err != ErrNoCursor {
		t.Fatalf("expired Next err = %v, want ErrNoCursor", err)
	}
	// The janitor frees the memory.
	store.evict(time.Now())
	if store.Len() != 0 {
		t.Fatalf("janitor left %d cursors", store.Len())
	}
	store.Shutdown()
}

func TestDynamicUpdate(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	e, _ := reg.Lookup("D")
	n := e.Count()

	m := do(t, s, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["9","9"]}`, 200)
	if m["changed"] != true || int64(m["count"].(float64)) != n+1 {
		t.Fatalf("insert = %v, want changed with count %d", m, n+1)
	}
	// The new value is queryable.
	m = do(t, s, "POST", "/v1/D/contains", `{"tuple":["9","9"]}`, 200)
	if m["contains"] != true {
		t.Fatal("inserted tuple not contained")
	}
	// Duplicate insert is a no-op.
	m = do(t, s, "POST", "/v1/D/update", `{"op":"insert","relation":"r","tuple":["9","9"]}`, 200)
	if m["changed"] != false {
		t.Fatalf("duplicate insert = %v", m)
	}
	m = do(t, s, "POST", "/v1/D/update", `{"op":"delete","relation":"r","tuple":["9","9"]}`, 200)
	if m["changed"] != true || int64(m["count"].(float64)) != n {
		t.Fatalf("delete = %v", m)
	}

	// Deleting a tuple with a never-seen value is a no-op that must not grow
	// the append-only dictionary (attacker-chosen input).
	dictLen := reg.snap.Load().db.Dict().Len()
	m = do(t, s, "POST", "/v1/D/update", `{"op":"delete","relation":"r","tuple":["ghost","ghost"]}`, 200)
	if m["changed"] != false {
		t.Fatalf("delete of unknown value = %v", m)
	}
	if got := reg.snap.Load().db.Dict().Len(); got != dictLen {
		t.Fatalf("delete interned %d new values", got-dictLen)
	}

	do(t, s, "POST", "/v1/D/update", `{"op":"upsert","relation":"r","tuple":["9","9"]}`, 400)
	do(t, s, "POST", "/v1/D/update", `{"op":"insert","relation":"zap","tuple":["9","9"]}`, 400)
	// Static indexes reject updates.
	do(t, s, "POST", "/v1/Q/update", `{"op":"insert","relation":"r","tuple":["9","9"]}`, 501)
}

func TestAdminFlow(t *testing.T) {
	s, reg := newTestServer(t, Config{})

	// Load a fresh table and register a query over it.
	do(t, s, "POST", "/admin/load", `{"name":"t","csv":"u,v\na,b\nc,d\n"}`, 200)
	m := do(t, s, "POST", "/admin/register", `{"program":"T(u, v) :- t(u, v)."}`, 200)
	if fmt.Sprint(m["registered"]) != "[T]" {
		t.Fatalf("registered = %v", m["registered"])
	}
	m = do(t, s, "GET", "/v1/T/count", "", 200)
	if int64(m["count"].(float64)) != 2 {
		t.Fatalf("T count = %v", m["count"])
	}

	// Replacing the table does not disturb the live index until rebuild.
	do(t, s, "POST", "/admin/load", `{"name":"t","csv":"u,v\na,b\nc,d\ne,f\n"}`, 200)
	m = do(t, s, "GET", "/v1/T/count", "", 200)
	if int64(m["count"].(float64)) != 2 {
		t.Fatalf("pre-rebuild count = %v, want the old snapshot's 2", m["count"])
	}
	_, genBefore := reg.Snapshot()
	do(t, s, "POST", "/admin/rebuild", "", 200)
	_, genAfter := reg.Snapshot()
	if genAfter <= genBefore {
		t.Fatalf("generation %d -> %d, want increase", genBefore, genAfter)
	}
	m = do(t, s, "GET", "/v1/T/count", "", 200)
	if int64(m["count"].(float64)) != 3 {
		t.Fatalf("post-rebuild count = %v, want 3", m["count"])
	}

	// Bad inputs are client errors.
	do(t, s, "POST", "/admin/load", `{"csv":"a\n1\n"}`, 400)
	do(t, s, "POST", "/admin/load", `{"name":"x","csv":""}`, 400)
	do(t, s, "POST", "/admin/register", `{"program":"Q(x) :- "}`, 400)
	// A cyclic query cannot be indexed.
	do(t, s, "POST", "/admin/register",
		`{"program":"C(x, y, z) :- r(x, y), r(y, z), r(z, x)."}`, 400)
}

// TestAdminRegisterRefusesIncompatibleUnion: a union whose intersection
// does not enumerate in its first disjunct's order — twin relations beside a
// disconnected atom, found by FuzzQuerySpace — is a 400 that names the
// reason, and nothing is published. A check of the rank fences' sampled
// elements alone let it register and then fail Access(0) inside [0, Count).
func TestAdminRegisterRefusesIncompatibleUnion(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	for name, csv := range map[string]string{
		"R0":   `e\n2\n0\n`,
		"R0_1": `e\n1\n2\n0\n`,
		"R1":   `c\n2\n1\n0\n`,
		"R2":   `b,c\n2,2\n2,1\n1,0\n1,1\n0,1\n0,0\n`,
		"R2_1": `b,c\n1,2\n1,0\n2,1\n0,1\n2,0\n0,0\n1,1\n`,
	} {
		do(t, s, "POST", "/admin/load", `{"name":"`+name+`","csv":"`+csv+`"}`, 200)
	}
	_, before := reg.Snapshot()
	raw, status := doRaw(s, "POST", "/admin/register",
		`{"program":"Twin(b, e) :- R0(e), R1(c), R2(b, c). Twin(b, e) :- R0_1(e), R1(c), R2_1(b, c)."}`)
	if status != 400 || !strings.Contains(string(raw), "not compatible") {
		t.Fatalf("register = %d %s, want 400 naming \"not compatible\"", status, raw)
	}
	if _, after := reg.Snapshot(); after != before {
		t.Fatalf("generation %d -> %d after a refused register", before, after)
	}
	if _, ok := reg.Lookup("Twin"); ok {
		t.Fatal("the refused union is served")
	}
	do(t, s, "GET", "/v1/Twin/count", "", 404)
}

// TestAdminLoadFailureChangesNothing: a payload whose new values are
// followed by a ragged last row, or that holds a bare quote in an unquoted
// field, is a 400 that neither replaces the relation of that name nor
// grows the append-only dictionary.
func TestAdminLoadFailureChangesNothing(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	db, gen := reg.Snapshot()
	before, err := db.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	rows, dictLen := before.Len(), db.Dict().Len()
	for _, csv := range []string{
		`a,b\nnew1,new2\nnew3,new4\nnew5\n`,
		`a,b\nnew1,new2\nnew3,ne\"w4\n`,
	} {
		do(t, s, "POST", "/admin/load", `{"name":"r","csv":"`+csv+`"}`, 400)
		after, err := db.Relation("r")
		if err != nil {
			t.Fatal(err)
		}
		if after != before || after.Len() != rows {
			t.Fatalf("%q: relation r replaced or changed (%d rows, want %d)", csv, after.Len(), rows)
		}
		if got := db.Dict().Len(); got != dictLen {
			t.Fatalf("%q: failed load interned %d new values", csv, got-dictLen)
		}
		if _, ok := db.Dict().Lookup("new1"); ok {
			t.Fatalf("%q: failed load interned new1", csv)
		}
	}
	if _, g := reg.Snapshot(); g != gen {
		t.Fatalf("generation %d -> %d after failed loads", gen, g)
	}
}

func TestAdminDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{AdminDisabled: true})
	_, status := doRaw(s, "POST", "/admin/rebuild", "")
	if status != 404 {
		t.Fatalf("admin on disabled server = %d, want 404", status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	do(t, s, "GET", "/v1/Q/count", "", 200)
	do(t, s, "GET", "/v1/Q/access?j=0", "", 200)
	do(t, s, "GET", "/v1/Q/access?j=999999", "", 400)

	text := promText(t, s)
	for _, want := range []string{
		"\nrenum_http_requests_total{endpoint=\"count\"} 1\n",
		"\nrenum_http_requests_total{endpoint=\"access\"} 2\n",
		"\nrenum_http_request_errors_total{endpoint=\"access\"} 1\n",
		"\nrenum_http_request_duration_seconds_count{endpoint=\"access\"} 2\n",
		"\nrenum_generation ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, grepLines(text, "renum_http_request"))
		}
	}
	// The query string is ignored: /metrics has one format.
	if raw, status := doRaw(s, "GET", "/metrics?format=xml", ""); status != 200 ||
		!strings.Contains(string(raw), "# TYPE renum_http_requests_total counter\n") {
		t.Fatalf("/metrics?format=xml = %d %.80q…, want the text exposition", status, raw)
	}
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	m := do(t, s, "GET", "/healthz", "", 200)
	if m["ok"] != true {
		t.Fatalf("healthz = %v", m)
	}
}

// TestMetaReportsCapabilities: the metadata endpoint advertises each
// entry's capability set, so clients discover what an entry supports
// instead of inferring it from the kind string.
func TestMetaReportsCapabilities(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	caps := func(name string) string {
		m := do(t, s, "GET", "/v1/"+name, "", 200)
		return fmt.Sprint(m["capabilities"])
	}
	if got := caps("Q"); got != "[enumerate contains invert sample explain snapshot]" {
		t.Fatalf("Q capabilities = %s", got)
	}
	if got := caps("U"); got != "[enumerate contains sample snapshot]" {
		t.Fatalf("U capabilities = %s", got)
	}
	if got := caps("D"); got != "[contains invert sample update snapshot]" {
		t.Fatalf("D capabilities = %s", got)
	}
}

// TestUnsupportedProbesAre501: every capability miss surfaces through
// renum.ErrUnsupported and maps to 501 uniformly — /inverted on a union,
// /update on a static entry, cursors on a dynamic one.
func TestUnsupportedProbesAre501(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, tc := range []struct{ method, url, body string }{
		{"POST", "/v1/U/inverted", `{"tuple":["1","2"]}`},
		{"POST", "/v1/Q/update", `{"op":"insert","relation":"r","tuple":["9","9"]}`},
		{"POST", "/v1/U/update", `{"op":"insert","relation":"r","tuple":["9","9"]}`},
		{"POST", "/v1/D/enum/start", ""},
		{"POST", "/v1/D/enum/start?order=random", ""},
	} {
		m := do(t, s, tc.method, tc.url, tc.body, 501)
		if !strings.Contains(fmt.Sprint(m["error"]), "unsupported") {
			t.Fatalf("%s %s error = %v, want an ErrUnsupported-derived message", tc.method, tc.url, m["error"])
		}
	}
}

// TestBatchHonorsRequestContext: a request whose context is already
// cancelled must not be served — the handler propagates ctx into the
// batched probe and reports the cancellation instead of answers.
func TestBatchHonorsRequestContext(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/v1/Q/batch?js=0,1,2", strings.NewReader("")).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code == 200 {
		t.Fatalf("cancelled batch served 200: %s", rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "context canceled") {
		t.Fatalf("cancelled batch body = %s, want a context cancellation", rec.Body.String())
	}
	// The entry is unharmed: the same batch succeeds on a live context.
	do(t, s, "GET", "/v1/Q/batch?js=0,1,2", "", 200)
}

// TestRandomCursorSurvivesCancelledDraw: a cancelled request on an
// order=random cursor must not consume answers — draws are atomic, the
// cursor stays alive, and a later full drain still delivers every answer
// exactly once.
func TestRandomCursorSurvivesCancelledDraw(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	e, _ := reg.Lookup("Q")
	n := e.Count()

	m := do(t, s, "POST", "/v1/Q/enum/start?order=random&seed=11", "", 200)
	id := m["cursor"].(string)

	// A request whose context is already cancelled fails without drawing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", fmt.Sprintf("/v1/Q/enum/next?cursor=%s&n=%d", id, n), strings.NewReader("")).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code == 200 {
		t.Fatalf("cancelled cursor draw served 200: %s", rec.Body.String())
	}

	// The cursor is alive and nothing was lost: the full drain still yields
	// every answer exactly once.
	m = do(t, s, "GET", fmt.Sprintf("/v1/Q/enum/next?cursor=%s&n=%d", id, n+1), "", 200)
	perm := m["answers"].([]any)
	if int64(len(perm)) != n || m["done"] != true {
		t.Fatalf("post-cancel drain = %d answers done=%v, want %d done", len(perm), m["done"], n)
	}
	seen := map[string]bool{}
	for _, a := range perm {
		seen[fmt.Sprint(a)] = true
	}
	if int64(len(seen)) != n {
		t.Fatalf("post-cancel drain lost answers: %d distinct of %d", len(seen), n)
	}
}

// TestUnionSampleAndPageParity: the UCQ entry serves /sample and /page with
// the same semantics as the CQ path (distinct samples, page ≡ batch) — the
// API-parity satellite surfaced over HTTP.
func TestUnionSampleAndPageParity(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	e, _ := reg.Lookup("U")
	n := e.Count()

	m := do(t, s, "GET", fmt.Sprintf("/v1/U/sample?k=%d&seed=3", n+5), "", 200)
	if m["with_replacement"] != false {
		t.Fatalf("union sampling must be distinct, got %v", m)
	}
	got := m["answers"].([]any)
	if int64(len(got)) != n {
		t.Fatalf("union sample clamped to %d, want Count %d", len(got), n)
	}
	seen := map[string]bool{}
	for _, a := range got {
		seen[fmt.Sprint(a)] = true
	}
	if int64(len(seen)) != n {
		t.Fatalf("union sample repeated answers: %d distinct of %d", len(seen), n)
	}

	js := make([]string, n)
	for i := range js {
		js[i] = fmt.Sprint(i)
	}
	batch := do(t, s, "GET", "/v1/U/batch?js="+strings.Join(js, ","), "", 200)
	page := do(t, s, "GET", fmt.Sprintf("/v1/U/page?offset=0&limit=%d", n), "", 200)
	if fmt.Sprint(batch["answers"]) != fmt.Sprint(page["answers"]) {
		t.Fatal("union page != union batch over the same positions")
	}
}
