package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastDoHeader is fastDo with one extra raw header line.
func fastDoHeader(t testing.TB, addr, method, target, header string) fastResponse {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: test\r\n%s\r\n\r\n", method, target, header)
	if _, err := c.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	return readFastResponse(t, bufio.NewReader(c))
}

// tracesDoc decodes /debug/traces.
type tracesDoc struct {
	Traces  []TraceView `json:"traces"`
	Dropped uint64      `json:"dropped"`
}

func getTraces(t testing.TB, s *Server, query string) tracesDoc {
	t.Helper()
	raw, status := doRaw(s, "GET", "/debug/traces"+query, "")
	if status != 200 {
		t.Fatalf("GET /debug/traces = %d: %s", status, raw)
	}
	var doc tracesDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("bad traces JSON %q: %v", raw, err)
	}
	return doc
}

// doTraced issues one mux request carrying an X-Request-Id.
func doTraced(t testing.TB, s *Server, id, method, url string) int {
	t.Helper()
	req := httptest.NewRequest(method, url, nil)
	req.Header.Set("X-Request-Id", id)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code
}

// TestTraceMux: a request with X-Request-Id is findable in /debug/traces
// with its endpoint, query attribution, status, and probe span.
func TestTraceMux(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if code := doTraced(t, s, "req-abc", "GET", "/v1/Q/access?j=0"); code != 200 {
		t.Fatalf("traced access = %d", code)
	}
	if code := doTraced(t, s, "req-err", "GET", "/v1/Q/access?j=999999"); code != 400 {
		t.Fatalf("traced bad access = %d", code)
	}

	doc := getTraces(t, s, "?id=req-abc")
	if len(doc.Traces) != 1 {
		t.Fatalf("traces for req-abc = %d, want 1", len(doc.Traces))
	}
	tr := doc.Traces[0]
	if tr.Endpoint != "access" || tr.Query != "Q" || tr.Status != 200 {
		t.Fatalf("trace = %+v", tr)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Name != "probe" {
		t.Fatalf("spans = %+v, want a probe span", tr.Spans)
	}

	errDoc := getTraces(t, s, "?id=req-err")
	if len(errDoc.Traces) != 1 || errDoc.Traces[0].Status != 400 {
		t.Fatalf("error trace = %+v", errDoc.Traces)
	}
	// No probe ran for the out-of-range j, so no spans were recorded.
	if len(errDoc.Traces[0].Spans) != 0 {
		t.Fatalf("error trace spans = %+v, want none", errDoc.Traces[0].Spans)
	}

	// Untraced requests never enter the ring.
	do(t, s, "GET", "/v1/Q/count", "", 200)
	all := getTraces(t, s, "")
	for _, tv := range all.Traces {
		if tv.Endpoint == "count" {
			t.Fatalf("untraced count request was recorded: %+v", tv)
		}
	}
}

// TestTraceDirectProbeSpan: /access is the one direct probe on every entry
// kind — static CQ, union and dynamic all record a single "probe" span.
func TestTraceDirectProbeSpan(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, q := range []string{"Q", "U", "D"} {
		doTraced(t, s, "direct-"+q, "GET", "/v1/"+q+"/access?j=0")
		doc := getTraces(t, s, "?id=direct-"+q)
		if len(doc.Traces) != 1 || len(doc.Traces[0].Spans) != 1 || doc.Traces[0].Spans[0].Name != "probe" {
			t.Fatalf("%s: trace = %+v, want one probe span", q, doc.Traces)
		}
	}
}

// TestTraceFastLoop: the fast loop records the same trace shape, reachable
// through the mux's /debug/traces on the same server.
func TestTraceFastLoop(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	_, addr := startFast(t, s)

	fr := fastDoHeader(t, addr, "GET", "/v1/Q/access?j=0", "X-Request-Id: fast-42")
	if fr.status != 200 {
		t.Fatalf("fast traced access = %d (%s)", fr.status, fr.body)
	}
	// The loop closes a request's bracket — and files its trace — after the
	// response is on the wire, so the client can be back here first.
	doc := getTraces(t, s, "?id=fast-42")
	for deadline := time.Now().Add(2 * time.Second); len(doc.Traces) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		doc = getTraces(t, s, "?id=fast-42")
	}
	if len(doc.Traces) != 1 {
		t.Fatalf("traces for fast-42 = %d, want 1", len(doc.Traces))
	}
	tr := doc.Traces[0]
	if tr.Endpoint != "access" || tr.Query != "Q" || tr.Status != 200 {
		t.Fatalf("fast trace = %+v", tr)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Name != "probe" {
		t.Fatalf("fast spans = %+v, want a probe span", tr.Spans)
	}

	// Untraced fast requests stay out of the ring.
	if fr := fastDo(t, addr, "GET", "/v1/Q/count", "", ""); fr.status != 200 {
		t.Fatalf("fast count = %d", fr.status)
	}
	for _, tv := range getTraces(t, s, "").Traces {
		if tv.Endpoint == "count" {
			t.Fatalf("untraced fast request was recorded: %+v", tv)
		}
	}
}

// TestTraceRingBounded: the ring evicts oldest-first at capacity and counts
// the drops.
func TestTraceRingBounded(t *testing.T) {
	s, _ := newTestServer(t, Config{TraceBuffer: 4})
	for i := 0; i < 10; i++ {
		doTraced(t, s, "ring-"+string(rune('a'+i)), "GET", "/v1/Q/count")
	}
	doc := getTraces(t, s, "")
	if len(doc.Traces) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(doc.Traces))
	}
	if doc.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", doc.Dropped)
	}
	// Newest first: the last request leads.
	if doc.Traces[0].ID != "ring-j" {
		t.Fatalf("newest trace = %q, want ring-j", doc.Traces[0].ID)
	}
	// ?n= bounds the page.
	if got := len(getTraces(t, s, "?n=2").Traces); got != 2 {
		t.Fatalf("?n=2 returned %d traces", got)
	}
}

// lockedBuf makes a bytes.Buffer safe for the fast loop's connection
// goroutine to write while the test reads.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *lockedBuf) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}

// waitLine polls until the buffer holds a complete line (the fast loop logs
// after the response bytes are already on the wire).
func (b *lockedBuf) waitLine(t testing.TB) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s := b.String(); strings.Contains(s, "\n") {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no slow-log line appeared")
	return ""
}

// TestSlowLog: requests over the threshold produce one structured line with
// endpoint, duration and request id; fast-loop requests log the same way.
func TestSlowLog(t *testing.T) {
	var buf lockedBuf
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s, _ := newTestServer(t, Config{SlowLog: time.Nanosecond, Logger: logger})

	doTraced(t, s, "slow-1", "GET", "/v1/Q/access?j=0")
	line := buf.String()
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow log line is not JSON: %q", line)
	}
	if rec["msg"] != "slow request" || rec["endpoint"] != "access" || rec["query"] != "Q" || rec["request_id"] != "slow-1" {
		t.Fatalf("slow log = %v", rec)
	}
	if _, ok := rec["duration_us"]; !ok {
		t.Fatalf("slow log missing duration_us: %v", rec)
	}

	buf.Reset()
	_, addr := startFast(t, s)
	if fr := fastDoHeader(t, addr, "GET", "/v1/Q/count", "X-Request-Id: slow-2"); fr.status != 200 {
		t.Fatalf("fast count = %d", fr.status)
	}
	fline := buf.waitLine(t)
	var frec map[string]any
	if err := json.Unmarshal([]byte(fline), &frec); err != nil {
		t.Fatalf("fast slow log line is not JSON: %q", fline)
	}
	if frec["msg"] != "slow request" || frec["endpoint"] != "count" || frec["query"] != "Q" || frec["request_id"] != "slow-2" {
		t.Fatalf("fast slow log = %v", frec)
	}

	// Threshold off: nothing is logged.
	var quiet bytes.Buffer
	s2, _ := newTestServer(t, Config{Logger: slog.New(slog.NewJSONHandler(&quiet, nil))})
	do(t, s2, "GET", "/v1/Q/count", "", 200)
	if quiet.Len() != 0 {
		t.Fatalf("SlowLog=0 logged: %q", quiet.String())
	}
}
