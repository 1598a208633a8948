package router

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// rawGET sends one GET — target, Accept value, further header lines — on a
// fresh connection and parses whatever comes back. ok is false when the
// server hung up (or waited for a body) without a parseable response.
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
	if body, err = io.ReadAll(resp.Body); err != nil {
		return 0, "", nil, true, false
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body, resp.Close, true
}

// FuzzFastLoopVsMux is internal/server's fuzz of the same name with the
// router as the target: one router served by its fast loop and by a
// net/http server, over a fleet of two fast-loop shards. The loop must
// answer like net/http — status, content type and body — or refuse the
// request at the protocol level and close the connection.
func FuzzFastLoopVsMux(f *testing.F) {
	fl := newFleetOf(f, 2, "loop")
	fastAddr := fl.front.(loopFront).addr
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	std := &http.Server{Handler: fl.rt.Handler()}
	go std.Serve(ln)
	f.Cleanup(func() { std.Close() })
	stdAddr := ln.Addr().String()

	for _, target := range []string{
		"/healthz", "/readyz", "/v1", "/v1/Q", "/v1/Q/count", "/nope", "/v1/Nope/count",
		"/v1/Q/access?j=0", "/v1/Q/access?j=%30", "/v1/Q/access?j=99999", "/v1/Q/access?j=zap",
		"/v1/Q/batch?js=0,5,3,0", "/v1/Q/batch?js=0,+1,,2", "/v1/Q/batch?js=1,x", "/v1/U/batch?js=0,1",
		"/v1/Q/page?offset=800&limit=300", "/v1/Q/page?offset=-1", "/v1/Q/sample?k=3&seed=42",
		"/v1/Q/enum/next?cursor=bogus&n=1", "/v1/Q/count x", "/v1/./count", "*",
	} {
		f.Add(target, "", "")
		f.Add(target, wire.ContentType, "")
	}
	for _, headers := range []string{
		"Content-Length: 0\r\nContent-Length: 26\r\n",
		"Content-Length: 0\r\nTransfer-Encoding: chunked\r\n",
		"X-A: 1\r\n X-B: 2\r\n",
		"X-A: 1\nX-B: 2\n",
		"X-Request-Id: fuzz-1\r\n",
	} {
		f.Add("/v1/Q/batch?js=0,1500", "", headers)
	}
	f.Fuzz(func(t *testing.T, target, accept, headers string) {
		if strings.ContainsAny(target+accept, "\r\n") || headers != "" && !strings.HasSuffix(headers, "\n") {
			t.Skip()
		}
		status, ct, body, closes, ok := rawGET(t, fastAddr, target, accept, headers)
		if !ok || closes {
			return
		}
		wantStatus, wantCT, wantBody, _, ok := rawGET(t, stdAddr, target, accept, headers)
		if !ok {
			t.Fatalf("GET %q %q: net/http hung up, the loop answered %d %q", target, headers, status, body)
		}
		if status != wantStatus || ct != wantCT {
			t.Fatalf("GET %q Accept %q %q: loop %d %q (%q), net/http %d %q (%q)", target, accept, headers, status, ct, body, wantStatus, wantCT, wantBody)
		}
		if u, err := url.ParseRequestURI(target); err == nil && status == http.StatusOK &&
			(u.Path == "/metrics" || u.Path == "/debug/traces" || strings.HasSuffix(u.Path, "/sample")) {
			return
		}
		if !bytes.Equal(body, wantBody) {
			t.Fatalf("GET %q Accept %q %q:\nloop:     %q\nnet/http: %q", target, accept, headers, body, wantBody)
		}
	})
}

// TestLoopAllocs pins what a routed request allocates end to end: a client
// on a socket, the router served by its fast loop, two fast-loop shards, all
// in this process. The shards' side allocates nothing, and neither does the
// router's front — the loop's parsing and framing, the Source lookup, the
// JSON body the core renders — so this is TestHopAllocs' per-hop limit plus
// half an allocation of measurement slack: one more allocation per request
// fails it.
func TestLoopAllocs(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("the race detector allocates; alloc measurement is timing sensitive")
	}
	f := newFleetOf(t, 2, "loop")
	n := count(t, f.ref, "Q")
	c, err := net.Dial("tcp", f.front.(loopFront).addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	roundTrip := func(req []byte) {
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
			if first && !bytes.HasPrefix(line, []byte("HTTP/1.1 200")) {
				t.Fatalf("response %q", line)
			}
			if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
				if clen, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := br.Discard(clen); err != nil {
			t.Fatal(err)
		}
	}
	js := make([]string, 64)
	for i := range js {
		js[i] = fmt.Sprint((int64(i) * 7919) % n)
	}
	const frontLimit = 0.5
	for _, tc := range []struct {
		name, target string
		hopLimit     float64
	}{
		{"access", fmt.Sprintf("/v1/Q/access?j=%d", n/3), 3},
		{"batch of 64", "/v1/Q/batch?js=" + strings.Join(js, ","), 8},
	} {
		req := []byte("GET " + tc.target + " HTTP/1.1\r\nHost: t\r\n\r\n")
		for i := 0; i < 64; i++ {
			roundTrip(req)
		}
		const count = 2000
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < count; i++ {
			roundTrip(req)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / count
		t.Logf("%s: %.2f allocs per routed request", tc.name, got)
		if limit := tc.hopLimit + frontLimit; got > limit {
			t.Errorf("%s: %.2f allocs per routed request, want at most %.1f", tc.name, got, limit)
		}
	}
}
