package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/wire"
)

// hostileStrings is the escaping corpus: everything encoding/json treats
// specially, plus plain values for the common path.
var hostileStrings = []string{
	"",
	"plain",
	"with space",
	`quotes " and \ backslash`,
	"<html> & </html>",
	"newline\nreturn\rtab\t",
	"bell\x07 backspace\x08 formfeed\x0c nul\x00",
	"unicode: ünïcødé 世界 🚀",
	"line sep \u2028 para sep \u2029",
	"invalid utf8: \xff\xfe\x80",
	"truncated rune: \xe4\xb8",
	"mixed \x01<&>\u2028\xff end",
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) {
		t.Helper()
		got := appendJSONString(nil, s)
		// json.Marshal escapes HTML by default, exactly like the Encoder the
		// handlers used to run.
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal(%q): %v", s, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q):\n got %s\nwant %s", s, got, want)
		}
	}
	for _, s := range hostileStrings {
		check(s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		check(string(b))
	}
}

// TestBodyBuildersMatchEncodingJSON pins each response-shape builder against
// the exact map[string]any + json.Encoder pair the handlers used before.
func TestBodyBuildersMatchEncodingJSON(t *testing.T) {
	encodeOld := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	db := renum.NewDatabase()
	dict := db.Dict()
	intern := func(cells ...string) renum.Tuple {
		tu := make(renum.Tuple, len(cells))
		for i, c := range cells {
			tu[i] = dict.Intern(c)
		}
		return tu
	}
	strs := func(tu renum.Tuple) []string {
		out := make([]string, len(tu))
		for i, v := range tu {
			out[i] = dict.String(v)
		}
		return out
	}
	t1 := intern("a", `esc"aped`, "<&>")
	t2 := intern("", "x\n", "\xff")
	ts := []renum.Tuple{t1, t2}
	tss := [][]string{strs(t1), strs(t2)}

	cases := []struct {
		name string
		got  []byte
		old  any
	}{
		{"healthz", healthzBody, map[string]any{"ok": true}},
		{"closed", closedBody, map[string]any{"closed": true}},
		{"count", appendCountBody(nil, 42), map[string]any{"count": int64(42)}},
		{"access", appendAccessBody(nil, dict, 7, t1), map[string]any{"j": int64(7), "answer": strs(t1)}},
		{"answers", appendAnswersBody(nil, dict, ts), map[string]any{"answers": tss}},
		{"answers empty", appendAnswersBody(nil, dict, []renum.Tuple(nil)), map[string]any{"answers": [][]string{}}},
		{"answers offset", closeAnswersOffsetBody(appendAnswersRow(openAnswersBody(nil), dict, true, t1), 3),
			map[string]any{"offset": int64(3), "answers": [][]string{strs(t1)}}},
		{"answers done", closeAnswersDoneBody(openAnswersBody(nil), true),
			map[string]any{"answers": [][]string{}, "done": true}},
		{"answers with_replacement", closeAnswersWithReplacementBody(appendAnswersRow(openAnswersBody(nil), dict, true, t2), false),
			map[string]any{"answers": [][]string{strs(t2)}, "with_replacement": false}},
		{"contains true", appendContainsBody(nil, true), map[string]any{"contains": true}},
		{"contains false", appendContainsBody(nil, false), map[string]any{"contains": false}},
		{"inverted found", appendInvertedBody(nil, 9, true), map[string]any{"j": int64(9), "found": true}},
		{"inverted missing", appendInvertedBody(nil, 0, false), map[string]any{"found": false}},
		{"changed", appendChangedBody(nil, true, 5), map[string]any{"changed": true, "count": int64(5)}},
		{"cursor", appendCursorBody(nil, `id"with<quote`, 300000), map[string]any{"cursor": `id"with<quote`, "ttl_ms": int64(300000)}},
		{"error", appendErrorBody(nil, `msg "quoted" & <tagged>`), map[string]string{"error": `msg "quoted" & <tagged>`}},
	}
	for _, tc := range cases {
		want := encodeOld(tc.old)
		if !bytes.Equal(tc.got, want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, tc.got, want)
		}
	}
}

// doRawAccept is doRaw with an Accept header.
func doRawAccept(s *Server, method, url, body, accept string) ([]byte, int, string) {
	req := httptest.NewRequest(method, url, strings.NewReader(body))
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Body.Bytes(), rec.Code, rec.Header().Get("Content-Type")
}

// answersOf decodes the "answers" rows of a JSON response.
func answersOf(t *testing.T, raw []byte) [][]string {
	t.Helper()
	var m struct {
		Answers [][]string `json:"answers"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("bad JSON %q: %v", raw, err)
	}
	return m.Answers
}

func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestWireGoldenEquivalence is the binary-format golden suite: for /batch,
// /page and both cursor orders, the wire response must decode to exactly the
// tuples the JSON path reports.
func TestWireGoldenEquivalence(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	e, _ := reg.Lookup("Q")
	n := e.Count()
	if n < 3 {
		t.Fatalf("fixture too small: %d", n)
	}

	checkPair := func(name, jsonURL, wireURL string, wantAux uint64) wire.Header {
		t.Helper()
		rawJSON, code, ct := doRawAccept(s, "GET", jsonURL, "", "")
		if code != 200 || ct != "application/json" {
			t.Fatalf("%s JSON: code %d ct %q body %s", name, code, ct, rawJSON)
		}
		rawWire, code, ct := doRawAccept(s, "GET", wireURL, "", wire.ContentType)
		if code != 200 || ct != wire.ContentType {
			t.Fatalf("%s wire: code %d ct %q", name, code, ct)
		}
		h, rows, err := wire.Parse(rawWire)
		if err != nil {
			t.Fatalf("%s wire parse: %v", name, err)
		}
		if h.Aux != wantAux {
			t.Errorf("%s aux = %d, want %d", name, h.Aux, wantAux)
		}
		if jsonRows := answersOf(t, rawJSON); !sameRows(jsonRows, rows) {
			t.Errorf("%s rows diverge:\n json %v\n wire %v", name, jsonRows, rows)
		}
		if int(h.Arity) != len(e.Head()) {
			t.Errorf("%s arity = %d, want %d", name, h.Arity, len(e.Head()))
		}
		return h
	}

	checkPair("batch", "/v1/Q/batch?js=0,2,1,0", "/v1/Q/batch?js=0,2,1,0", 0)
	checkPair("batch empty", "/v1/Q/batch?js=", "/v1/Q/batch?js=", 0)
	checkPair("page", "/v1/Q/page?offset=1&limit=2", "/v1/Q/page?offset=1&limit=2", 1)
	checkPair("page tail", fmt.Sprintf("/v1/Q/page?offset=%d&limit=10", n-1), fmt.Sprintf("/v1/Q/page?offset=%d&limit=10", n-1), uint64(n-1))

	// Cursor draws, both orders: two cursors (one per format) walk the same
	// deterministic sequence — order=enum is access order, order=random with
	// a pinned seed is one fixed permutation.
	for _, order := range []string{"enum", "random"} {
		start := func() string {
			m := do(t, s, "POST", "/v1/Q/enum/start?order="+order+"&seed=11", "", 200)
			return m["cursor"].(string)
		}
		jsonCur, wireCur := start(), start()
		for draw := 0; ; draw++ {
			rawJSON, code, _ := doRawAccept(s, "GET", "/v1/Q/enum/next?cursor="+jsonCur+"&n=2", "", "")
			if code != 200 {
				t.Fatalf("order=%s draw %d JSON code %d: %s", order, draw, code, rawJSON)
			}
			rawWire, code, ct := doRawAccept(s, "GET", "/v1/Q/enum/next?cursor="+wireCur+"&n=2", "", wire.ContentType)
			if code != 200 || ct != wire.ContentType {
				t.Fatalf("order=%s draw %d wire code %d ct %q", order, draw, code, ct)
			}
			h, rows, err := wire.Parse(rawWire)
			if err != nil {
				t.Fatalf("order=%s draw %d wire parse: %v", order, draw, err)
			}
			var jm struct {
				Answers [][]string `json:"answers"`
				Done    bool       `json:"done"`
			}
			if err := json.Unmarshal(rawJSON, &jm); err != nil {
				t.Fatal(err)
			}
			if !sameRows(jm.Answers, rows) {
				t.Errorf("order=%s draw %d rows diverge:\n json %v\n wire %v", order, draw, jm.Answers, rows)
			}
			if h.Done() != jm.Done {
				t.Errorf("order=%s draw %d done: json %v wire %v", order, draw, jm.Done, h.Done())
			}
			if jm.Done {
				break
			}
			if draw > int(n) {
				t.Fatalf("order=%s cursor never finished", order)
			}
		}
	}
}

// TestResponsesByteIdenticalToOldEncoder replays the old handlers' exact
// map[string]any + json.Encoder rendering for live requests and compares
// bytes, pinning the "byte-identical to pre-PR responses" contract
// end-to-end (success and error paths).
func TestResponsesByteIdenticalToOldEncoder(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	e, _ := reg.Lookup("Q")
	n := e.Count()
	render := func(tu renum.Tuple) []string { return renderTuple(reg, tu) }
	oldEncode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	probe := func(j int64) renum.Tuple {
		tu, err := e.H.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		return tu
	}
	renderAll := func(js ...int64) [][]string {
		out := make([][]string, 0, len(js))
		for _, j := range js {
			out = append(out, render(probe(j)))
		}
		return out
	}

	cases := []struct {
		name   string
		method string
		url    string
		body   string
		status int
		old    any
	}{
		{"healthz", "GET", "/healthz", "", 200, map[string]any{"ok": true}},
		{"count", "GET", "/v1/Q/count", "", 200, map[string]any{"count": n}},
		{"access", "GET", "/v1/Q/access?j=0", "", 200, map[string]any{"j": int64(0), "answer": render(probe(0))}},
		{"access last", "GET", fmt.Sprintf("/v1/Q/access?j=%d", n-1), "", 200,
			map[string]any{"j": n - 1, "answer": render(probe(n - 1))}},
		{"batch", "GET", "/v1/Q/batch?js=0,2,0", "", 200, map[string]any{"answers": renderAll(0, 2, 0)}},
		{"batch empty", "GET", "/v1/Q/batch?js=", "", 200, map[string]any{"answers": [][]string{}}},
		{"batch post", "POST", "/v1/Q/batch", `{"js":[1,0]}`, 200, map[string]any{"answers": renderAll(1, 0)}},
		{"page", "GET", "/v1/Q/page?offset=1&limit=2", "", 200,
			map[string]any{"offset": int64(1), "answers": renderAll(1, 2)}},
		{"page past end", "GET", fmt.Sprintf("/v1/Q/page?offset=%d&limit=2", n+5), "", 200,
			map[string]any{"offset": n + 5, "answers": [][]string{}}},
		{"contains", "POST", "/v1/Q/contains", `{"tuple":["1","2","x"]}`, 200, map[string]any{"contains": true}},
		{"inverted", "POST", "/v1/Q/inverted", `{"tuple":["1","2","x"]}`, 200, map[string]any{"j": int64(0), "found": true}},
		{"inverted miss", "POST", "/v1/Q/inverted", `{"tuple":["9","9","x"]}`, 200, map[string]any{"found": false}},
		{"access out of range", "GET", "/v1/Q/access?j=99", "", 400,
			map[string]string{"error": fmt.Sprintf("j=99 out of range [0, %d)", n)}},
		{"bad js", "GET", "/v1/Q/batch?js=zap", "", 400,
			map[string]string{"error": `js: strconv.ParseInt: parsing "zap": invalid syntax`}},
		{"no cursor", "GET", "/v1/Q/enum/next?cursor=nope", "", 404,
			map[string]string{"error": ErrNoCursor.Error()}},
	}
	for _, tc := range cases {
		raw, status := doRaw(s, tc.method, tc.url, tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, status, tc.status, raw)
			continue
		}
		if want := oldEncode(tc.old); !bytes.Equal(raw, want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, raw, want)
		}
	}
}
