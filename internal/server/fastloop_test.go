package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// startFast serves s with the fast loop on a loopback listener and returns
// the server plus its address. Serve's error is checked at cleanup.
func startFast(t testing.TB, s *Server) (*FastServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFastServer(s)
	serveErr := make(chan error, 1)
	go func() { serveErr <- fs.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := fs.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return fs, ln.Addr().String()
}

// fastResponse is one parsed response off a fast-loop connection.
type fastResponse struct {
	status      int
	contentType string
	connClose   bool
	body        []byte
}

// readFastResponse parses one framed response (status line, headers,
// Content-Length body) from br.
func readFastResponse(t testing.TB, br *bufio.Reader) fastResponse {
	t.Helper()
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read status line: %v", err)
	}
	parts := strings.SplitN(strings.TrimRight(line, "\r\n"), " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.1") {
		t.Fatalf("bad status line %q", line)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		t.Fatalf("bad status in %q", line)
	}
	resp := fastResponse{status: status}
	clen := -1
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read header: %v", err)
		}
		h = strings.TrimRight(h, "\r\n")
		if h == "" {
			break
		}
		k, v, ok := strings.Cut(h, ":")
		if !ok {
			t.Fatalf("bad header %q", h)
		}
		v = strings.TrimSpace(v)
		switch strings.ToLower(k) {
		case "content-length":
			if clen, err = strconv.Atoi(v); err != nil {
				t.Fatalf("bad content-length %q", v)
			}
		case "content-type":
			resp.contentType = v
		case "connection":
			resp.connClose = strings.EqualFold(v, "close")
		}
	}
	if clen < 0 {
		t.Fatal("response missing Content-Length")
	}
	resp.body = make([]byte, clen)
	if _, err := io.ReadFull(br, resp.body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp
}

// fastDo opens a fresh connection, issues one request, and parses the
// response.
func fastDo(t testing.TB, addr, method, target, body, accept string) fastResponse {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var req bytes.Buffer
	fmt.Fprintf(&req, "%s %s HTTP/1.1\r\nHost: test\r\n", method, target)
	if accept != "" {
		fmt.Fprintf(&req, "Accept: %s\r\n", accept)
	}
	if body != "" {
		fmt.Fprintf(&req, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	req.WriteString("\r\n")
	req.WriteString(body)
	if _, err := c.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	return readFastResponse(t, bufio.NewReader(c))
}

// TestFastLoopMatchesMux pins the fast loop's responses byte-for-byte
// against the mux path for the same requests — success, error, fast-path
// and fallback endpoints alike.
func TestFastLoopMatchesMux(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	_, addr := startFast(t, s)
	e, _ := reg.Lookup("Q")
	n := e.Count()

	cases := []struct {
		name, method, target, body, accept string
	}{
		{"healthz", "GET", "/healthz", "", ""},
		{"count", "GET", "/v1/Q/count", "", ""},
		{"count ucq", "GET", "/v1/U/count", "", ""},
		{"count dynamic", "GET", "/v1/D/count", "", ""},
		{"access first", "GET", "/v1/Q/access?j=0", "", ""},
		{"access last", "GET", fmt.Sprintf("/v1/Q/access?j=%d", n-1), "", ""},
		{"access missing j", "GET", "/v1/Q/access", "", ""},
		{"access bad j", "GET", "/v1/Q/access?j=zap", "", ""},
		{"access escaped j", "GET", "/v1/Q/access?j=%30", "", ""},
		// Anything net/url would decode takes the mux, so the two transports
		// cannot disagree on escaped keys, malformed escapes or separators.
		{"access escaped key", "GET", "/v1/Q/access?%6a=0", "", ""},
		{"access bad escape", "GET", "/v1/Q/access?j=%zz", "", ""},
		{"access truncated escape", "GET", "/v1/Q/access?j=%", "", ""},
		{"access semicolon", "GET", "/v1/Q/access?j=0;x=1", "", ""},
		{"access duplicate j", "GET", "/v1/Q/access?j=0&j=1", "", ""},
		{"batch escaped comma", "GET", "/v1/Q/batch?js=0%2C1", "", ""},
		{"page escaped and plus", "GET", "/v1/Q/page?limit=%32&offset=+1", "", ""},
		{"batch", "GET", "/v1/Q/batch?js=0,1,2", "", ""},
		{"batch spaced", "GET", "/v1/Q/batch?js=0,+1,,2", "", ""},
		{"batch empty", "GET", "/v1/Q/batch?js=", "", ""},
		{"batch bad", "GET", "/v1/Q/batch?js=1,x", "", ""},
		{"batch wire", "GET", "/v1/Q/batch?js=0,1,2", "", wire.ContentType},
		{"page", "GET", "/v1/Q/page?offset=1&limit=2", "", ""},
		{"page defaults", "GET", "/v1/Q/page", "", ""},
		{"page past end", "GET", fmt.Sprintf("/v1/Q/page?offset=%d&limit=3", n+5), "", ""},
		{"page negative", "GET", "/v1/Q/page?offset=-1&limit=2", "", ""},
		{"page wire", "GET", "/v1/Q/page?offset=0&limit=4", "", wire.ContentType},
		{"sample seeded", "GET", "/v1/Q/sample?k=3&seed=42", "", ""},
		{"sample ucq seeded", "GET", "/v1/U/sample?k=2&seed=7", "", ""},
		{"unknown query", "GET", "/v1/nope/count", "", ""},
		{"enum next no cursor", "GET", "/v1/Q/enum/next?cursor=bogus&n=1", "", ""},
		// Fallback (mux-served) endpoints over the same socket.
		{"list", "GET", "/v1", "", ""},
		{"meta", "GET", "/v1/Q", "", ""},
		{"unknown path", "GET", "/nope", "", ""},
		{"batch post", "POST", "/v1/Q/batch", `{"js": [0, 2]}`, ""},
		{"batch post bad", "POST", "/v1/Q/batch", `{"js": "zap"}`, ""},
		{"contains post", "POST", "/v1/Q/contains", `{"tuple": ["1", "2", "x"]}`, ""},
		{"update wrong kind", "POST", "/v1/Q/update", `{"op": "insert", "relation": "r", "tuple": ["9", "9"]}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantBody, wantStatus, wantCT := doRawAccept(s, tc.method, tc.target, tc.body, tc.accept)
			got := fastDo(t, addr, tc.method, tc.target, tc.body, tc.accept)
			if got.status != wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", got.status, wantStatus, got.body)
			}
			if got.contentType != wantCT {
				t.Fatalf("content type = %q, want %q", got.contentType, wantCT)
			}
			if !bytes.Equal(got.body, wantBody) {
				t.Fatalf("body mismatch:\nfast: %q\nmux:  %q", got.body, wantBody)
			}
		})
	}
}

// TestFastLoopKeepAlive drives several requests down one connection.
func TestFastLoopKeepAlive(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	_, addr := startFast(t, s)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	targets := []string{"/v1/Q/access?j=0", "/v1/Q/count", "/healthz", "/v1/Q/batch?js=1,2", "/v1/Q", "/v1/Q/access?j=1"}
	for _, target := range targets {
		fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: test\r\n\r\n", target)
		resp := readFastResponse(t, br)
		if resp.status != 200 {
			t.Fatalf("GET %s = %d (%s)", target, resp.status, resp.body)
		}
		if resp.connClose {
			t.Fatalf("GET %s asked to close a keep-alive connection", target)
		}
		want, _, _ := doRawAccept(s, "GET", target, "", "")
		if !bytes.Equal(resp.body, want) {
			t.Fatalf("GET %s body %q, want %q", target, resp.body, want)
		}
	}
}

// TestFastLoopCursorEquivalence drains one cursor through the fast loop and
// a twin cursor through the mux, in both orders, asserting identical draws
// (one of them spelled with percent-escaped cursor and n).
func TestFastLoopCursorEquivalence(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	_, addr := startFast(t, s)
	for _, order := range []string{"enum", "random"} {
		t.Run(order, func(t *testing.T) {
			start := fmt.Sprintf("/v1/Q/enum/start?order=%s&seed=5", order)
			muxCur := do(t, s, "POST", start, "", 200)["cursor"].(string)
			fastStart := fastDo(t, addr, "POST", start, "", "")
			if fastStart.status != 200 {
				t.Fatalf("fast enum/start = %d (%s)", fastStart.status, fastStart.body)
			}
			var fastCur string
			if _, err := fmt.Sscanf(string(fastStart.body), `{"cursor":%q`, &fastCur); err != nil {
				t.Fatalf("parse cursor from %s: %v", fastStart.body, err)
			}
			for i := 0; i < 4; i++ {
				target := "/v1/Q/enum/next?n=2&cursor="
				wantBody, wantStatus, _ := doRawAccept(s, "GET", target+muxCur, "", "")
				fastTarget := target + fastCur
				if i == 1 {
					// Both values percent-escaped: the draw must find the live
					// cursor and honor n, like the plain spelling.
					fastTarget = fmt.Sprintf("/v1/Q/enum/next?cursor=%%%02x%s&n=%%32", fastCur[0], fastCur[1:])
				}
				got := fastDo(t, addr, "GET", fastTarget, "", "")
				if got.status != wantStatus {
					t.Fatalf("draw %d: status %d, want %d", i, got.status, wantStatus)
				}
				// Bodies are identical because both cursors were started with
				// the same seed and order over the same static entry.
				if !bytes.Equal(got.body, wantBody) {
					t.Fatalf("draw %d:\nfast: %s\nmux:  %s", i, got.body, wantBody)
				}
			}
		})
	}
}

// TestFastLoopHeadKeepsFraming: a HEAD response carries Content-Length and
// no body, so the next response on the connection starts right after the
// header block.
func TestFastLoopHeadKeepsFraming(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	_, addr := startFast(t, s)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(c, "HEAD /healthz HTTP/1.1\r\nHost: test\r\n\r\nGET /v1/Q/count HTTP/1.1\r\nHost: test\r\n\r\n")
	br := bufio.NewReader(c)
	var clen string
	for first := true; ; first = false {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read HEAD response: %v", err)
		}
		if first && !strings.HasPrefix(line, "HTTP/1.1 200") {
			t.Fatalf("HEAD status line %q", line)
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			clen = strings.TrimSpace(v)
		}
		if line == "\r\n" {
			break
		}
	}
	if clen != strconv.Itoa(len(healthzBody)) {
		t.Fatalf("HEAD Content-Length = %q, want %d (the GET body's length)", clen, len(healthzBody))
	}
	got := readFastResponse(t, br) // fails on a bad status line if a HEAD body was sent
	want, _, _ := doRawAccept(s, "GET", "/v1/Q/count", "", "")
	if got.status != 200 || !bytes.Equal(got.body, want) {
		t.Fatalf("pipelined GET after HEAD = %d %q, want 200 %q", got.status, got.body, want)
	}
}

// TestFastLoopWireDraws checks binary-framed cursor draws over the socket.
func TestFastLoopWireDraws(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	_, addr := startFast(t, s)
	resp := fastDo(t, addr, "POST", "/v1/Q/enum/start?order=enum", "", "")
	var cur string
	if _, err := fmt.Sscanf(string(resp.body), `{"cursor":%q`, &cur); err != nil {
		t.Fatalf("parse cursor: %v", err)
	}
	got := fastDo(t, addr, "GET", "/v1/Q/enum/next?n=3&cursor="+cur, "", wire.ContentType)
	if got.status != 200 || got.contentType != wire.ContentType {
		t.Fatalf("wire draw = %d %q", got.status, got.contentType)
	}
	h, rows, err := wire.Parse(got.body)
	if err != nil {
		t.Fatal(err)
	}
	if h.Arity != 3 || len(rows) != 3 {
		t.Fatalf("arity %d rows %d", h.Arity, len(rows))
	}
}

// TestFastLoopHTTP10Closes verifies an HTTP/1.0 request is served and the
// connection closed after the response.
func TestFastLoopHTTP10Closes(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	_, addr := startFast(t, s)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "GET /v1/Q/count HTTP/1.0\r\nHost: test\r\n\r\n")
	br := bufio.NewReader(c)
	resp := readFastResponse(t, br)
	if resp.status != 200 || !resp.connClose {
		t.Fatalf("HTTP/1.0 response: status %d close %v", resp.status, resp.connClose)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after HTTP/1.0 response: %v", err)
	}
}

// TestFastLoopShutdownDrains: Shutdown returns promptly with an idle
// keep-alive connection open, and new connections are refused after.
func TestFastLoopShutdown(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFastServer(s)
	serveErr := make(chan error, 1)
	go func() { serveErr <- fs.Serve(ln) }()
	addr := ln.Addr().String()
	// An idle keep-alive connection must not wedge Shutdown.
	resp := fastDo(t, addr, "GET", "/healthz", "", "")
	if resp.status != 200 {
		t.Fatalf("healthz = %d", resp.status)
	}
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := fs.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestFastLoopOversizedRequestLine: a request line beyond the connection
// buffer is rejected with 431, not an unbounded read.
func TestFastLoopOversizedRequestLine(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	_, addr := startFast(t, s)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "GET /%s HTTP/1.1\r\n", strings.Repeat("a", fastBufSize+10))
	resp := readFastResponse(t, bufio.NewReader(c))
	if resp.status != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("status = %d, want 431", resp.status)
	}
}

// hammerFast issues count identical GETs (with an Accept header unless
// accept is empty) down one connection with a zero-allocation client loop
// and returns the average server+client heap allocations per request.
func hammerFast(t testing.TB, addr, target, accept string, count int) float64 {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := []byte("GET " + target + " HTTP/1.1\r\nHost: t\r\n")
	if accept != "" {
		req = append(req, "Accept: "+accept+"\r\n"...)
	}
	req = append(req, "\r\n"...)
	br := bufio.NewReaderSize(c, 64<<10)
	roundTrip := func() {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		clen := -1
		for first := true; ; first = false {
			line, err := br.ReadSlice('\n')
			if err != nil {
				t.Fatal(err)
			}
			if len(line) <= 2 {
				break
			}
			if first {
				if !bytes.HasPrefix(line, []byte("HTTP/1.1 200")) {
					t.Fatalf("response %q", line)
				}
				continue
			}
			if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
				clen = 0
				for _, d := range v[:len(v)-2] {
					clen = clen*10 + int(d-'0')
				}
			}
		}
		if clen < 0 {
			t.Fatal("no content-length")
		}
		if _, err := br.Discard(clen); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up the connection scratch and pools before measuring.
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < count; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(count)
}

// TestFastLoopSteadyStateAllocs pins the zero-allocation claim: steady-state
// probe requests through the fast loop cost (almost) no heap allocations —
// the measured number includes the test's client loop and any background
// runtime noise, so the bound is a small constant rather than exactly zero.
// The wire rows allow half an allocation, so one allocation a request
// fails them. A cursor draw is the exception: it allocates five objects a
// draw today, pinned at that count plus one.
func TestFastLoopSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is timing sensitive")
	}
	s, reg := newTestServer(t, Config{})
	_, addr := startFast(t, s)
	// The cursor row needs an enumeration that outlasts the whole hammer
	// (warm-up included) at 64 answers a draw: a 500 × 500 cross product.
	var e strings.Builder
	e.WriteString("a,b\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&e, "%d,%d\n", i, i)
	}
	if err := reg.LoadTable("e", strings.NewReader(e.String())); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("E(a, b, c, d) :- e(a, b), e(c, d).", false); err != nil {
		t.Fatal(err)
	}
	m := do(t, s, "POST", "/v1/E/enum/start?order=enum", "", 200)
	for _, tc := range []struct {
		name, target, accept string
		limit                float64
	}{
		{"access", "/v1/Q/access?j=1", "", 1.0},
		{"count", "/v1/Q/count", "", 1.0},
		{"batch", "/v1/Q/batch?js=0,1,2,3", "", 1.0},
		{"page", "/v1/Q/page?offset=0&limit=4", "", 1.0},
		{"batch_wire", "/v1/Q/batch?js=0,1,2,3", wire.ContentType, 0.5},
		{"page_wire", "/v1/Q/page?offset=0&limit=4", wire.ContentType, 0.5},
		{"enum_next", "/v1/E/enum/next?n=64&cursor=" + m["cursor"].(string), "", 6.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := hammerFast(t, addr, tc.target, tc.accept, 3000)
			t.Logf("%s: %.3f allocs/req", tc.name, got)
			if got > tc.limit {
				t.Fatalf("%s: %.3f allocs/req, want <= %.1f", tc.name, got, tc.limit)
			}
		})
	}
}

// TestFastLoopRefusesAmbiguousFraming: a header block that frames its body
// two ways, or continues a field on the next line (obs-fold), is answered
// 400 and the connection closed — nothing after it is read as a body or a
// next request. Keeping the last Content-Length instead would swallow the
// pipelined bytes as a body and answer what is left of them.
func TestFastLoopRefusesAmbiguousFraming(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	_, addr := startFast(t, s)
	next := "GET /v1/Q/count HTTP/1.1\r\nHost: test\r\n\r\n"
	for name, head := range map[string]string{
		"conflicting Content-Length": "Content-Length: 0\r\nContent-Length: 26\r\n",
		"obs-fold":                   "X-A: 1\r\n X-B: 2\r\n",
		"Content-Length obs-fold":    "Content-Length: 0\r\n\t26\r\n",
		"non-token field name":       "X A: 1\r\n",
		"signed Content-Length":      "Content-Length: +0\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			fmt.Fprintf(c, "GET /v1/Q/count HTTP/1.1\r\nHost: test\r\n%s\r\n%s%s", head, next, next)
			br := bufio.NewReader(c)
			if resp := readFastResponse(t, br); resp.status != http.StatusBadRequest || !resp.connClose {
				t.Fatalf("status %d, close %v (%s); want 400 and close", resp.status, resp.connClose, resp.body)
			}
			if _, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("connection still open after the refusal: %v", err)
			}
		})
	}
	// Equal Content-Lengths frame one way: net/http serves them, and so does
	// the loop.
	resp := fastDo(t, addr, "GET", "/v1/Q/count", "", "")
	if resp.status != 200 {
		t.Fatalf("plain count = %d", resp.status)
	}
}
