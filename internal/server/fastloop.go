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
	"net/textproto"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// This file is the transport of both daemons, renumd and its router: a
// hand-rolled HTTP/1.1 connection loop that serves the hot GET probe
// surface (/healthz, /readyz, count, access, batch, page, sample,
// enum/next) from per-connection pooled state — request parsing, routing,
// parameter scanning and response framing all run without a single
// steady-state heap allocation. net/http's generic path
// costs ~18 allocations per request before a handler runs (request struct,
// header map, URL parse, per-request context, mux pattern match); at the
// paper's "millions of users" scale that floor, not the O(log n) probe,
// dominates.
//
// The loop is a transport only: it hands the target's query string to the
// core's one scanner (parseRequest, query.go), which the mux runs on its
// RawQuery, and writes the bytes Core.do returns (core.go), so the
// parameters a hot op reads, what it validates and how it frames its body are
// decided in one place for this loop and the mux, whichever daemon's catalog
// serves the query. It reads requests with the tier's one line and header
// reader (header.go).
//
// Everything else — POST/DELETE endpoints, admin, metadata, unknown paths,
// and any GET whose path carries a percent-escape or whose target carries a
// control byte — falls back to the Server's ordinary mux: the loop builds a
// real http.Request from the parsed bytes and delegates, so those requests
// keep exactly one behavior (including error bodies and the route
// instrumentation). TestFastLoopMatchesMux and FuzzFastLoopVsMux pin the
// loop's bytes against the mux's.

const (
	// fastIdleTimeout closes a keep-alive connection with no next request.
	fastIdleTimeout = 60 * time.Second
	// fastHeaderTimeout bounds reading one request's header block (the
	// net/http server this replaces used ReadHeaderTimeout: 5s).
	fastHeaderTimeout = 5 * time.Second
	// fastBodyTimeout bounds reading one request body on the fallback path.
	fastBodyTimeout = 30 * time.Second
	// fastBufSize sizes the per-connection read/write buffers; it also
	// bounds the request line + any single header line.
	fastBufSize = 16 << 10
)

// FastServer serves a Server's API with the pooled connection loop: the hot
// GETs in the loop, everything else through the Server's mux.
type FastServer struct {
	s        *Server
	eps      [numOps]*endpointMetrics // per-op instruments, resolved once
	mu       sync.Mutex
	ln       net.Listener
	conns    map[*fastConn]struct{}
	wg       sync.WaitGroup
	shutting atomic.Bool
	baseCtx  context.Context
	cancel   context.CancelFunc
}

// NewFastServer wraps s. Serve/ListenAndServe run the accept loop;
// Shutdown drains like net/http's.
func NewFastServer(s *Server) *FastServer {
	ctx, cancel := context.WithCancel(context.Background())
	f := &FastServer{s: s, conns: make(map[*fastConn]struct{}), baseCtx: ctx, cancel: cancel}
	// Resolving the instruments here (not per request) is what keeps the hot
	// loop free of map lookups and label rendering; the names match the mux
	// routes, so both serving paths share one set of series.
	for op := opHealthz; op <= OpEnumNext; op++ {
		f.eps[op] = s.metrics.endpoint(opNames[op])
	}
	return f
}

// ListenAndServe listens on addr and serves until Shutdown.
func (f *FastServer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return f.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it; it then
// returns http.ErrServerClosed, mirroring net/http so callers can reuse
// their shutdown plumbing.
func (f *FastServer) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.shutting.Load() {
		f.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	f.ln = ln
	f.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if f.shutting.Load() {
				return http.ErrServerClosed
			}
			return err
		}
		fc := &fastConn{
			f:  f,
			c:  c,
			br: bufio.NewReaderSize(c, fastBufSize),
			bw: bufio.NewWriterSize(c, fastBufSize),
		}
		fc.enc.buf = make([]byte, 0, 4096)
		fc.ctx.Context = f.baseCtx
		// Register under the mutex: Shutdown flips the flag under the same
		// mutex, so either this Add happens-before its Wait or we observe
		// the shutdown here and drop the connection.
		f.mu.Lock()
		if f.shutting.Load() {
			f.mu.Unlock()
			c.Close()
			continue
		}
		f.conns[fc] = struct{}{}
		f.wg.Add(1)
		f.mu.Unlock()
		go func() {
			defer f.wg.Done()
			fc.serve()
			f.mu.Lock()
			delete(f.conns, fc)
			f.mu.Unlock()
		}()
	}
}

// Shutdown stops accepting, lets in-flight requests finish, and closes
// idle connections. Past ctx's deadline every remaining connection is
// force-closed and ctx's error returned.
func (f *FastServer) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.shutting.Store(true)
	if f.ln != nil {
		f.ln.Close()
	}
	for fc := range f.conns {
		if !fc.busy.Load() {
			// Kick connections blocked waiting for a next request; the
			// serve loop re-checks the shutdown flag and exits. A request
			// racing in still gets served (its bytes are already buffered).
			fc.c.SetReadDeadline(time.Unix(1, 0))
		}
	}
	f.mu.Unlock()
	done := make(chan struct{})
	go func() { f.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		f.cancel() // cancel handler contexts, then cut the sockets
		f.mu.Lock()
		for fc := range f.conns {
			fc.c.Close()
		}
		f.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// fastConn is one connection's reusable state.
type fastConn struct {
	f       *FastServer
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	enc     enc       // body builder + probe scratch, connection-owned
	req     request   // the current fast-path request, parsed
	ctx     tracedCtx // its context: the server's, with its trace
	head    []byte    // response head scratch
	target  []byte    // stable copy of the request target
	query   []byte    // target's raw query string (parseRequest scans it)
	reqID   []byte    // X-Request-Id copy (tracing); empty when untraced
	hm      headerMeta
	hdr     http.Header // every field, collected for the fallback only
	busy    atomic.Bool
	closing bool
	wrote   int64 // body bytes of the current request (metrics)
}

// headerMeta is what the fast path needs from a header block.
type headerMeta struct {
	Framing
	sawAccept bool
	wantWire  bool
	expect    int  // Expect fields
	expect100 bool // the first one asks for 100-continue
	hosts     int
}

var (
	bGET    = []byte("GET")
	bHTTP11 = []byte("HTTP/1.1")
	bHTTP10 = []byte("HTTP/1.0")
)

func (fc *fastConn) serve() {
	defer fc.c.Close()
	for {
		fc.busy.Store(false)
		fc.c.SetReadDeadline(time.Now().Add(fastIdleTimeout))
		if fc.f.shutting.Load() {
			return
		}
		line, err := ReadLine(fc.br)
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				fc.closing = true
				fc.writeResponse(http.StatusRequestHeaderFieldsTooLarge, "application/json",
					appendErrorBody(fc.enc.buf[:0], "request line too long"))
			}
			return // EOF, idle timeout, shutdown kick: close quietly
		}
		fc.busy.Store(true)
		if fc.f.shutting.Load() {
			fc.closing = true // serve the raced-in request, then close
		}
		if !fc.handleRequest(line) || fc.closing {
			return
		}
	}
}

// handleRequest parses one request line and dispatches. It reports whether
// the connection can carry another request.
func (fc *fastConn) handleRequest(line []byte) bool {
	// method SP target SP version, split at the first two spaces the way
	// net/http does: a target with a space in it leaves a malformed version.
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	rawTarget, proto, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 || len(method) == 0 || len(rawTarget) == 0 {
		fc.abort(http.StatusBadRequest, "malformed request line")
		return false
	}
	switch {
	case bytes.Equal(proto, bHTTP11):
	case bytes.Equal(proto, bHTTP10):
		fc.closing = true
	default:
		fc.abort(http.StatusHTTPVersionNotSupported, "unsupported protocol")
		return false
	}
	// Copy the target out of the bufio window: header reads may slide it.
	fc.target = append(fc.target[:0], rawTarget...)
	path, query, _ := bytes.Cut(fc.target, []byte("?"))
	op, qname := opNone, []byte(nil)
	if bytes.Equal(method, bGET) && plainTarget(fc.target, path) {
		op, qname = fastRoute(path)
	}
	if op == opNone {
		return fc.serveFallback(method, fc.target)
	}
	fc.query = query
	if !fc.readHeaders(nil) {
		return false
	}
	// A GET with a body is legal if pointless; keep framing by draining it.
	if n := fc.hm.Length; n > 0 {
		if n > fastBufSize {
			fc.abort(http.StatusRequestEntityTooLarge, "unexpected request body")
			return false
		}
		if _, err := fc.br.Discard(int(n)); err != nil {
			return false
		}
	}

	// The benchmark harness never sends X-Request-Id, so the untraced loop
	// stays 0-alloc.
	s := fc.f.s
	b := beginRequest(s, fc.f.eps[op], fc.reqID)
	fc.wrote = 0
	err := fc.serveFast(op, qname, fc.hm.wantWire, b.tr)
	if err != nil {
		if werr := fc.writeResponse(errorStatus(err), "application/json", errorBody(fc.enc.buf[:0], err.Error())); werr != nil {
			return false
		}
	}
	if d, status, slow := s.end(b, err, fc.wrote); slow {
		s.logSlow(opNames[op], string(fc.target), string(qname), string(fc.reqID), d, status)
	}
	return true
}

// plainTarget reports that a request target can be routed and scanned as the
// raw bytes it is: it holds no control byte, which net/url rejects, and its
// path no percent-escape, which only the mux decodes.
func plainTarget(target, path []byte) bool {
	for _, c := range target {
		if c < ' ' || c == 0x7f {
			return false
		}
	}
	return bytes.IndexByte(path, '%') < 0
}

// fastRoute maps a path to a fast op. qname is a sub-slice of path.
func fastRoute(path []byte) (Op, []byte) {
	if string(path) == "/healthz" {
		return opHealthz, nil
	}
	if string(path) == "/readyz" {
		return opReadyz, nil
	}
	const v1 = "/v1/"
	if len(path) < len(v1) || string(path[:len(v1)]) != v1 {
		return opNone, nil
	}
	rest := path[len(v1):]
	slash := bytes.IndexByte(rest, '/')
	if slash <= 0 {
		return opNone, nil // /v1 or /v1/{query} metadata: mux
	}
	qname, op := rest[:slash], rest[slash+1:]
	if string(qname) == "." || string(qname) == ".." {
		return opNone, nil // the mux cleans dot segments (with a redirect)
	}
	switch string(op) {
	case "count":
		return OpCount, qname
	case "access":
		return OpAccess, qname
	case "batch":
		return OpBatch, qname
	case "page":
		return OpPage, qname
	case "sample":
		return OpSample, qname
	case "enum/next":
		return OpEnumNext, qname
	}
	return opNone, nil
}

// readHeaders reads one request's header block. The fast path keeps only
// the scalars in fc.hm; the fallback passes hdr to also collect every field
// for the http.Request it builds. It reports false when the connection must
// close (the error response, if one is due, has been written).
func (fc *fastConn) readHeaders(hdr http.Header) bool {
	fc.c.SetReadDeadline(time.Now().Add(fastHeaderTimeout))
	fc.hm, fc.hdr = headerMeta{}, hdr
	fc.reqID = fc.reqID[:0] // a request without the header must not inherit one
	err := ReadHeader(fc.br, &fc.hm.Framing, fc.field)
	fc.hdr = nil
	if bad, ok := err.(HeaderError); ok {
		fc.abort(http.StatusBadRequest, string(bad))
		return false
	}
	switch err {
	case nil:
	case bufio.ErrBufferFull:
		fc.abort(http.StatusRequestHeaderFieldsTooLarge, "header line too long")
		return false
	case ErrTooManyFields:
		fc.abort(http.StatusRequestHeaderFieldsTooLarge, err.Error())
		return false
	default:
		return false
	}
	hm := &fc.hm
	fc.closing = fc.closing || hm.Close
	switch {
	case hm.hosts > 1:
		fc.abort(http.StatusBadRequest, "too many Host headers")
	case hm.expect > 0 && !hm.expect100:
		fc.abort(http.StatusExpectationFailed, "unsupported expectation")
	case hm.TE > 0:
		fc.abort(http.StatusNotImplemented, "chunked request bodies are not supported")
	default:
		return true
	}
	return false
}

// field takes one header field: the fields the loop reads, and every field
// when the fallback collects them.
func (fc *fastConn) field(name, val []byte) {
	hm := &fc.hm
	if fc.hdr != nil {
		key := textproto.CanonicalMIMEHeaderKey(string(name))
		fc.hdr[key] = append(fc.hdr[key], string(val))
	}
	switch {
	case asciiEqualFold(name, "accept"):
		// Only the first Accept line counts, as with http.Header.Get.
		if !hm.sawAccept {
			hm.sawAccept, hm.wantWire = true, acceptIsWire(val)
		}
	case asciiEqualFold(name, "expect"):
		if hm.expect++; hm.expect == 1 {
			hm.expect100 = tokenListHasFold(val, "100-continue")
		}
	case asciiEqualFold(name, "host"):
		hm.hosts++
	case asciiEqualFold(name, "x-request-id"):
		// Copy out of the bufio window now: later reads slide it.
		fc.reqID = append(fc.reqID[:0], val...)
	}
}

// serveFast runs one fast-path op: hand the query name and the query string
// to the catalog, which resolves the source and runs the core, and write
// what it returns. A returned error becomes the JSON error response (same
// mapping as the mux route wrapper).
func (fc *fastConn) serveFast(op Op, qname []byte, wantWire bool, tr *traceRec) error {
	s := fc.f.s
	switch op {
	case opHealthz:
		return fc.writeResponse(http.StatusOK, "application/json", healthzBody)
	case opReadyz:
		ready, gen := s.readiness()
		status, body := readyzResponse(fc.enc.buf[:0], ready, gen)
		return fc.writeResponse(status, "application/json", body)
	}
	fc.req = request{op: op, wantWire: wantWire}
	fc.enc.buf = fc.enc.buf[:0]
	fc.ctx.tr = tr
	body, isWire, err := s.run(&fc.ctx, qname, &fc.req, fc, &fc.enc, tr)
	fc.ctx.tr = nil
	if err != nil {
		return err
	}
	return fc.writeNegotiated(body, isWire)
}

// parse scans the request's query string.
func (fc *fastConn) parse(req *request, enc *enc) error { return parseRequest(req, fc.query, enc) }

func (fc *fastConn) writeNegotiated(body []byte, asWire bool) error {
	ct := "application/json"
	if asWire {
		ct = wire.ContentType
	}
	return fc.writeResponse(http.StatusOK, ct, body)
}

// ----------------------------------------------------------- response side

// statusLines covers every status the handlers produce; others format cold.
func statusLine(status int) string {
	switch status {
	case http.StatusOK:
		return "HTTP/1.1 200 OK\r\n"
	case http.StatusBadRequest:
		return "HTTP/1.1 400 Bad Request\r\n"
	case http.StatusNotFound:
		return "HTTP/1.1 404 Not Found\r\n"
	case http.StatusConflict:
		return "HTTP/1.1 409 Conflict\r\n"
	case statusClientClosedRequest:
		return "HTTP/1.1 499 Client Closed Request\r\n"
	case http.StatusInternalServerError:
		return "HTTP/1.1 500 Internal Server Error\r\n"
	case http.StatusNotImplemented:
		return "HTTP/1.1 501 Not Implemented\r\n"
	}
	text := http.StatusText(status)
	if text == "" {
		text = "Status"
	}
	return fmt.Sprintf("HTTP/1.1 %d %s\r\n", status, text)
}

// dateEntry caches the RFC 1123 Date header value, re-rendered once per
// second — time formatting would otherwise be the hottest call on the
// response path.
type dateEntry struct {
	unix  int64
	bytes [29]byte
}

var cachedDate atomic.Pointer[dateEntry]

func appendHTTPDate(dst []byte, now time.Time) []byte {
	e := cachedDate.Load()
	if sec := now.Unix(); e == nil || e.unix != sec {
		ne := &dateEntry{unix: sec}
		ne.bytes = [29]byte{}
		b := now.UTC().AppendFormat(ne.bytes[:0], http.TimeFormat)
		if len(b) == len(ne.bytes) {
			cachedDate.Store(ne)
			e = ne
		} else {
			// Format drift (never expected): fall back without caching.
			return append(dst, b...)
		}
	}
	return append(dst, e.bytes[:]...)
}

// writeResponse frames and sends one response (head into the connection
// scratch, one buffered write, one flush).
func (fc *fastConn) writeResponse(status int, contentType string, body []byte) error {
	h := fc.head[:0]
	h = append(h, statusLine(status)...)
	h = append(h, "Content-Type: "...)
	h = append(h, contentType...)
	h = append(h, "\r\nDate: "...)
	h = appendHTTPDate(h, time.Now())
	if fc.closing {
		h = append(h, "\r\nConnection: close"...)
	}
	h = append(h, "\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(len(body)), 10)
	h = append(h, '\r', '\n', '\r', '\n')
	fc.head = h
	if _, err := fc.bw.Write(h); err != nil {
		return err
	}
	if _, err := fc.bw.Write(body); err != nil {
		return err
	}
	fc.wrote += int64(len(body))
	return fc.bw.Flush()
}

// abort sends an error response and marks the connection for closing (used
// for protocol-level failures where framing is no longer trustworthy).
func (fc *fastConn) abort(status int, msg string) {
	fc.closing = true
	fc.writeResponse(status, "application/json", appendErrorBody(fc.enc.buf[:0], msg))
}

// ---------------------------------------------------------- fallback path

// serveFallback parses the rest of the request into a real http.Request and
// delegates to the Server's mux, buffering the response so it can be framed
// with a Content-Length on this keep-alive connection. Cold by design: the
// allocations here buy exact behavioral parity for every non-hot endpoint.
func (fc *fastConn) serveFallback(method, target []byte) bool {
	hdr := make(http.Header, 8)
	if !fc.readHeaders(hdr) {
		return false
	}
	hm := &fc.hm
	u, err := url.ParseRequestURI(string(target))
	if err != nil {
		fc.abort(http.StatusBadRequest, "bad request target")
		return false
	}
	var bodyReader io.Reader = eofReader{}
	var lr *io.LimitedReader
	if hm.Length > 0 {
		fc.c.SetReadDeadline(time.Now().Add(fastBodyTimeout))
		if hm.expect100 {
			if _, err := fc.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
				return false
			}
			if err := fc.bw.Flush(); err != nil {
				return false
			}
		}
		lr = &io.LimitedReader{R: fc.br, N: hm.Length}
		bodyReader = lr
	}
	req := &http.Request{
		Method:        string(method),
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        hdr,
		Body:          io.NopCloser(bodyReader),
		ContentLength: hm.Length,
		Host:          hdr.Get("Host"),
		RequestURI:    string(target),
	}
	if fc.c.RemoteAddr() != nil {
		req.RemoteAddr = fc.c.RemoteAddr().String()
	}
	req = req.WithContext(fc.f.baseCtx)
	rw := &bufferedResponse{}
	fc.f.s.mux.ServeHTTP(rw, req)
	if req.Method == http.MethodHead {
		// Like net/http: a HEAD response carries the headers of the GET —
		// Content-Length included — and no body. Writing one would be read
		// by a keep-alive client as the start of the next response.
		rw.noBody = true
	}
	// Drain what the handler left so the next request starts on a boundary.
	if lr != nil && lr.N > 0 {
		if _, err := io.Copy(io.Discard, lr); err != nil {
			fc.closing = true
		}
	}
	return fc.writeBuffered(rw)
}

type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

// bufferedResponse is the fallback path's ResponseWriter: handlers write a
// complete response into memory, then writeBuffered frames it.
type bufferedResponse struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
	noBody bool // HEAD: frame the body's length, send none of it
}

func (b *bufferedResponse) Header() http.Header {
	if b.hdr == nil {
		b.hdr = make(http.Header, 4)
	}
	return b.hdr
}

func (b *bufferedResponse) WriteHeader(status int) {
	if b.status == 0 {
		b.status = status
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.WriteHeader(http.StatusOK)
	return b.body.Write(p)
}

func (fc *fastConn) writeBuffered(rw *bufferedResponse) bool {
	if rw.status == 0 {
		rw.status = http.StatusOK
	}
	h := fc.head[:0]
	h = append(h, statusLine(rw.status)...)
	for k, vs := range rw.hdr {
		for _, v := range vs {
			h = append(h, k...)
			h = append(h, ':', ' ')
			h = append(h, v...)
			h = append(h, '\r', '\n')
		}
	}
	h = append(h, "Date: "...)
	h = appendHTTPDate(h, time.Now())
	if fc.closing {
		h = append(h, "\r\nConnection: close"...)
	}
	h = append(h, "\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(rw.body.Len()), 10)
	h = append(h, '\r', '\n', '\r', '\n')
	fc.head = h
	if _, err := fc.bw.Write(h); err != nil {
		return false
	}
	if !rw.noBody {
		if _, err := fc.bw.Write(rw.body.Bytes()); err != nil {
			return false
		}
		fc.wrote += int64(rw.body.Len())
	}
	return fc.bw.Flush() == nil
}

// -------------------------------------------------------- byte-level bits

// parseInt64Bytes parses a decimal int64 with optional sign; ok=false on
// anything strconv.ParseInt would reject (the caller reproduces the exact
// strconv error on that cold path).
func parseInt64Bytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg, i := false, 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
		if len(b) == 1 {
			return 0, false
		}
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return 0, false
		}
		if n > (1<<63)/10 {
			return 0, false // would overflow
		}
		n = n*10 + uint64(c)
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}
