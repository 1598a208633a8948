package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// rawGET sends one GET with the given target, Accept value and further
// header lines on a fresh connection and parses whatever comes back. ok is
// false when the server hung up (or waited for a body) without a parseable
// response.
func rawGET(t *testing.T, addr, target, accept, headers string) (status int, contentType string, body []byte, closes, ok bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.WriteString(c, "GET "+target+" HTTP/1.1\r\nHost: test\r\nAccept: "+accept+"\r\n"+headers+"\r\n"); err != nil {
		return 0, "", nil, true, false
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		return 0, "", nil, true, false
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, true, false
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body, resp.Close, true
}

// FuzzFastLoopVsMux sends the same GET — a target, an Accept value and a
// block of further header lines — through the fast loop and through a real
// net/http server over the same mux. The fast loop must answer with the same
// status, content type and body — or refuse the request at the protocol
// level and close the connection, which it may do for input net/http
// tolerates. The 200 bodies that are not reproducible — /metrics,
// /debug/traces and a /sample draw, time-seeded unless ?seed= says
// otherwise — are compared on status and content type only
// (TestFastLoopMatchesMux pins seeded samples). The router's twin of this
// fuzz is in internal/server/router.
func FuzzFastLoopVsMux(f *testing.F) {
	s, _ := newTestServer(f, Config{})
	_, fastAddr := startFast(f, s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	std := &http.Server{Handler: s.Handler()}
	go std.Serve(ln)
	f.Cleanup(func() { std.Close() })
	stdAddr := ln.Addr().String()

	for _, target := range []string{
		"/healthz", "/readyz", "/v1", "/v1/Q", "/v1/Q/count", "/nope",
		"/v1/Q/access?j=0", "/v1/Q/access?%6a=0", "/v1/Q/access?j=%zz", "/v1/Q/access?j=%", "/v1/Q/access?j=0;x=1",
		"/v1/Q/access?j=0&j=1", "/v1/Q/access?j=zap", "/v1/Q/access?j=99", "/v1/Q/access", "/v1/%51/access?j=1",
		"/v1/Q/batch?js=0,99", "/v1/Q/sample?k=-1",
		"/v1/Q/batch?js=0%2C1", "/v1/Q/batch?js=0,+1,,2", "/v1/Q/batch?js=1,x", "/v1/U/batch?js=0,1",
		"/v1/Q/page?limit=%32&offset=+1", "/v1/Q/page?offset=-1", "/v1/Q/page?offset=2&limit=70000",
		"/v1/Q/sample?k=3&seed=42", "/v1/Q/sample?k=-1&seed=zap", "/v1/D/sample?k=2&seed=1",
		"/v1/Q/enum/next?cursor=%66f&n=%31", "/v1/Q/enum/next?cursor=bogus&n=0",
		"/v1/Q/count x", "/v1/Q/count?\x01", "/v1//count", "//v1/Q/count", "/v1/./sample", "/v1/../count", "http://h/v1/Q/count", "*",
	} {
		f.Add(target, "", "")
		f.Add(target, wire.ContentType, "")
	}
	f.Add("/v1/Q/batch?js=0,1", "text/plain, "+wire.ContentType+";q=0.5", "")
	f.Add("/v1/Q/page", "\t"+wire.ContentType+" ", "")
	f.Add("/v1/Q/page", wire.ContentType+"\x00", "")
	for _, headers := range fuzzHeaderSeeds {
		f.Add("/v1/Q/count", "", headers)
	}
	f.Fuzz(func(t *testing.T, target, accept, headers string) {
		checkFastVsStd(t, fastAddr, stdAddr, target, accept, headers)
	})
}

// fuzzHeaderSeeds are header blocks that frame a request two ways, fold a
// field onto the next line, or end lines in a bare LF.
var fuzzHeaderSeeds = []string{
	"Content-Length: 0\r\nContent-Length: 26\r\n",
	"Content-Length: 0\r\nTransfer-Encoding: chunked\r\n",
	"X-A: 1\r\n X-B: 2\r\n",
	"X-A: 1\nX-B: 2\n",
	"Content-Length: 0\r\nContent-Length: 0\r\n",
	"X-Request-Id: fuzz-1\r\n",
}

// checkFastVsStd is one FuzzFastLoopVsMux input against a fast loop and a
// net/http server in front of the same handler.
func checkFastVsStd(t *testing.T, fastAddr, stdAddr, target, accept, headers string) {
	// A line break would change how the request is framed, not what its
	// target or Accept value is; the header block must end its last line.
	if strings.ContainsAny(target+accept, "\r\n") || headers != "" && !strings.HasSuffix(headers, "\n") {
		t.Skip()
	}
	status, ct, body, closes, ok := rawGET(t, fastAddr, target, accept, headers)
	if !ok || closes {
		return
	}
	wantStatus, wantCT, wantBody, _, ok := rawGET(t, stdAddr, target, accept, headers)
	if !ok {
		t.Fatalf("GET %q %q: net/http hung up, the fast loop answered %d %q", target, headers, status, body)
	}
	if status != wantStatus || ct != wantCT {
		t.Fatalf("GET %q Accept %q %q: fast loop %d %q (%q), net/http %d %q (%q)", target, accept, headers, status, ct, body, wantStatus, wantCT, wantBody)
	}
	if u, err := url.ParseRequestURI(target); err == nil && status == http.StatusOK &&
		(u.Path == "/metrics" || u.Path == "/debug/traces" || strings.HasSuffix(u.Path, "/sample")) {
		return
	}
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("GET %q Accept %q %q:\nfast loop: %q\nnet/http:  %q", target, accept, headers, body, wantBody)
	}
}
