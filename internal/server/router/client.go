package router

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
)

// This file is the shard client: the only code that talks to a shard daemon.
// One HTTP/1.1 exchange per connection at a time over a free list of
// persistent connections per shard, the request appended into
// connection-owned scratch, the reply read by a reader that is total on
// whatever bytes a shard sends. Scrapes, tuple forwarding and row legs all go
// through begin → send → recv.

const (
	// hopTimeout bounds one exchange whose context carries no deadline.
	hopTimeout = 10 * time.Second
	// maxReply caps one reply body.
	maxReply = 1 << 30
	// maxIdleConns bounds a shard's free list; a burst's surplus is closed.
	maxIdleConns = 64
	// maxRequestLine is what a shard's fast loop reads a request line into
	// (server.fastBufSize, less the protocol suffix): a longer /batch goes as
	// a POST, which the shard's mux serves.
	maxRequestLine = 16<<10 - 64
)

// shard is one daemon of the fleet — address, instruments, health flag and
// idle connections — created the first time a scrape names its URL and shared
// by every routing table since, so a leg resolves nothing.
type shard struct {
	base   string // the configured URL: names the shard in errors and labels
	addr   string // host:port to dial
	prefix string // path prefix of the base URL, usually empty
	head   string // " HTTP/1.1\r\nHost: …\r\n", closing every request line
	tls    bool

	reqs, errs, redials *obs.Counter
	lat                 *obs.Histogram
	healthy             *obs.Gauge
	up                  atomic.Bool

	mu   sync.Mutex
	idle []*conn
}

func newShard(base string, reg *obs.Registry) (*shard, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("shard URL %q: want http://host:port or https://host:port", base)
	}
	port := u.Port()
	if port == "" {
		port = map[string]string{"http": "80", "https": "443"}[u.Scheme]
	}
	labels := obs.Labels("shard", base)
	sh := &shard{
		base:    base,
		addr:    net.JoinHostPort(u.Hostname(), port),
		prefix:  u.EscapedPath(),
		head:    " HTTP/1.1\r\nHost: " + u.Host + "\r\n",
		tls:     u.Scheme == "https",
		reqs:    reg.Counter("renum_shard_requests_total", "Requests the router sent to each shard daemon.", labels),
		errs:    reg.Counter("renum_shard_request_errors_total", "Shard requests that failed (transport error, 5xx or a reply that failed its checks).", labels),
		redials: reg.Counter("renum_shard_redials_total", "Shard requests sent again on a fresh connection because the pooled one had gone stale.", labels),
		lat:     reg.Histogram("renum_shard_request_duration_seconds", "Latency of router-to-shard requests.", labels),
		healthy: reg.Gauge("renum_shard_healthy", "1 when the shard's last interaction succeeded, 0 after a fault (until a scrape proves it back).", labels),
	}
	sh.setUp(true)
	return sh, nil
}

func (sh *shard) setUp(up bool) {
	sh.up.Store(up)
	if up {
		sh.healthy.Set(1)
	} else {
		sh.healthy.Set(0)
	}
}

// fail books a fault of this shard — it flips /readyz until a scrape proves
// the fleet back — and returns the typed error that names it.
func (sh *shard) fail(err error) error {
	sh.errs.Inc()
	sh.setUp(false)
	return &shardError{shard: sh.base, err: err}
}

func (sh *shard) closeIdle() {
	sh.mu.Lock()
	idle := sh.idle
	sh.idle = nil
	sh.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

// conn is one persistent connection and the scratch of the exchange on it.
type conn struct {
	nc       net.Conn
	br       *bufio.Reader
	req      []byte // the request as sent, kept so a redial can send it again
	reused   bool   // off the free list: it may have gone stale there
	deadline time.Time
	t0       time.Time
}

func (sh *shard) dial(ctx context.Context, deadline time.Time) (net.Conn, error) {
	d := &net.Dialer{Deadline: deadline}
	if sh.tls {
		return (&tls.Dialer{NetDialer: d}).DialContext(ctx, "tcp", sh.addr)
	}
	return d.DialContext(ctx, "tcp", sh.addr)
}

// begin takes a connection — an idle one, else a new one — and starts a
// request in its scratch: method, then the target up to path. The caller
// appends the rest of the target and calls send.
func (sh *shard) begin(ctx context.Context, method, path string) (*conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = t0.Add(hopTimeout)
	}
	var c *conn
	sh.mu.Lock()
	if n := len(sh.idle); n > 0 {
		c, sh.idle = sh.idle[n-1], sh.idle[:n-1]
	}
	sh.mu.Unlock()
	if c == nil {
		nc, err := sh.dial(ctx, deadline)
		if err != nil {
			sh.reqs.Inc()
			return nil, sh.fail(err)
		}
		c = &conn{nc: nc, br: bufio.NewReader(nc)}
	}
	c.t0, c.deadline = t0, deadline
	c.nc.SetDeadline(deadline)
	c.req = sh.appendLine(c.req[:0], method, path)
	return c, nil
}

// appendLine starts a request line: the method and the target up to path.
func (sh *shard) appendLine(dst []byte, method, path string) []byte {
	return append(append(append(append(dst, method...), ' '), sh.prefix...), path...)
}

// send completes the request begun on c — protocol and Host, Accept when the
// leg negotiates, the X-Request-Id the front traces ctx's request under (an
// id that could split a header line stays home), the body's framing — and
// writes it. A write that fails on a pooled connection is the
// connection having gone stale: redial sends the same bytes once more.
func (sh *shard) send(ctx context.Context, c *conn, accept string, body []byte) error {
	sh.reqs.Inc()
	b := append(c.req, sh.head...)
	if accept != "" {
		b = append(append(append(b, "Accept: "...), accept...), '\r', '\n')
	}
	if id := server.RequestID(ctx); len(id) > 0 && !bytes.ContainsFunc(id, unicode.IsControl) {
		b = append(append(append(b, "X-Request-Id: "...), id...), '\r', '\n')
	}
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = append(strconv.AppendInt(b, int64(len(body)), 10), '\r', '\n')
	}
	c.req = append(append(b, '\r', '\n'), body...)
	_, err := c.nc.Write(c.req)
	if err != nil && c.reused && !errors.Is(err, os.ErrDeadlineExceeded) {
		err = sh.redial(ctx, c)
	}
	if err != nil {
		c.nc.Close()
		return sh.fail(err)
	}
	return nil
}

// redial replaces c's connection, which went stale on the free list before a
// single reply byte arrived, and sends the request again — safe because every
// hop is a read. Once: the fresh connection is not retried.
func (sh *shard) redial(ctx context.Context, c *conn) error {
	sh.redials.Inc()
	c.nc.Close()
	nc, err := sh.dial(ctx, c.deadline)
	if err != nil {
		return err
	}
	nc.SetDeadline(c.deadline)
	c.nc, c.reused = nc, false
	c.br.Reset(nc)
	_, err = nc.Write(c.req)
	return err
}

// recv reads the reply to the request sent on c and returns its body, a
// buffer of its own that nothing else will touch. The connection goes back to
// the free list when the reply left it on a message boundary, and is closed
// otherwise. A status outside 2xx is a shardError carrying the shard's error
// string; only transport faults and 5xx count against the shard's health — a
// 4xx is an input the shard rejected, not a fleet fault.
func (sh *shard) recv(ctx context.Context, c *conn) ([]byte, error) {
	if c.reused {
		if _, err := c.br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			if err := sh.redial(ctx, c); err != nil {
				c.nc.Close()
				return nil, sh.fail(err)
			}
		}
	}
	status, body, keep, err := readReply(c.br)
	sh.lat.Record(time.Since(c.t0))
	if err != nil {
		c.nc.Close()
		return nil, sh.fail(err)
	}
	sh.mu.Lock()
	if keep = keep && len(sh.idle) < maxIdleConns; keep {
		c.reused = true
		sh.idle = append(sh.idle, c)
	}
	sh.mu.Unlock()
	if !keep {
		c.nc.Close()
	}
	if status/100 != 2 {
		var eb struct {
			Error string `json:"error"`
		}
		msg := string(bytes.TrimSpace(body))
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		err := fmt.Errorf("status %d: %s", status, msg)
		if status >= 500 {
			return nil, sh.fail(err)
		}
		return nil, &shardError{shard: sh.base, err: err}
	}
	return body, nil
}

// do is one whole exchange, for the legs that have nothing to overlap:
// scrapes and tuple forwarding.
func (sh *shard) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	c, err := sh.begin(ctx, method, path)
	if err != nil {
		return nil, err
	}
	if err := sh.send(ctx, c, "", body); err != nil {
		return nil, err
	}
	return sh.recv(ctx, c)
}

// doJSON is do with the reply decoded into v.
func (sh *shard) doJSON(ctx context.Context, method, path string, body []byte, v any) error {
	data, err := sh.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return &shardError{shard: sh.base, err: fmt.Errorf("%s: %v", path, err)}
	}
	return nil
}

// ------------------------------------------------------------ reply reader

var errReply = errors.New("malformed reply")

func replyErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errReply, fmt.Sprintf(format, args...))
}

// readReply reads one response off br with the tier's line and header
// reader (server.ReadHeader): the status of the final (non-1xx) head and the
// whole body, framed by Content-Length, by chunks, or by the end of the
// stream. keep reports that br stands on a message boundary of a
// connection the shard will keep open. The body grows as bytes arrive, so a
// reply costs the memory of what was received, not of what a header claims.
func readReply(br *bufio.Reader) (status int, body []byte, keep bool, err error) {
	for {
		line, err := server.ReadLine(br)
		if err != nil {
			return 0, nil, false, err
		}
		// "HTTP/1.x SSS" and then a space or nothing.
		if len(line) < 12 || string(line[:7]) != "HTTP/1." || (line[7] != '0' && line[7] != '1') ||
			line[8] != ' ' || (len(line) > 12 && line[12] != ' ') {
			return 0, nil, false, replyErrorf("status line %q", line)
		}
		keep = line[7] == '1'
		if status, err = strconv.Atoi(string(line[9:12])); err != nil || status < 100 {
			return 0, nil, false, replyErrorf("status line %q", line)
		}
		var f server.Framing
		if err := server.ReadHeader(br, &f, nil); err != nil {
			return 0, nil, false, err
		}
		keep = keep && !f.Close
		switch {
		case status < 200:
			continue // interim: no body, the real head follows
		case f.TE > 0 && !f.Chunked:
			return 0, nil, false, replyErrorf("Transfer-Encoding is not one chunked")
		case f.Chunked && f.Length >= 0:
			return 0, nil, false, replyErrorf("both Content-Length and Transfer-Encoding")
		case status == http.StatusNoContent || status == http.StatusNotModified:
			return status, nil, keep, nil
		case f.Chunked:
			body, err = readChunks(br)
		case f.Length >= 0:
			body, err = readN(br, nil, f.Length)
		default: // framed by the end of the stream
			keep = false
			if body, err = readN(br, nil, maxReply); err == io.ErrUnexpectedEOF {
				err = nil
			} else if err == nil {
				err = replyErrorf("body above %d bytes", maxReply)
			}
		}
		return status, body, keep, err
	}
}

// readN appends the next n bytes of br to body, growing it by no more than
// has already arrived (64 KiB to begin with) and never past n.
func readN(br *bufio.Reader, body []byte, n int64) ([]byte, error) {
	if n > maxReply-int64(len(body)) {
		return nil, replyErrorf("body above %d bytes", maxReply)
	}
	for n > 0 {
		if len(body) == cap(body) {
			body = slices.Grow(body, int(min(n, max(64<<10, int64(len(body))))))
		}
		m, err := br.Read(body[len(body):min(int64(cap(body)), int64(len(body))+n)])
		body, n = body[:len(body)+m], n-int64(m)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return body, err
		}
	}
	return body, nil
}

// readChunks reads a chunked body: hex size (extensions ignored), data, CRLF,
// until the zero chunk and its trailers.
func readChunks(br *bufio.Reader) (body []byte, err error) {
	for {
		line, err := server.ReadLine(br)
		if err != nil {
			return nil, err
		}
		size, _, _ := bytes.Cut(line, []byte(";"))
		n, err := strconv.ParseUint(string(bytes.Trim(size, " \t")), 16, 63)
		if err != nil {
			return nil, replyErrorf("chunk size %q", line)
		}
		for n == 0 { // the last chunk: trailers, up to the empty line
			if line, err = server.ReadLine(br); err != nil || len(line) == 0 {
				return body, err
			}
		}
		if body, err = readN(br, body, int64(n)); err != nil {
			return nil, err
		}
		if line, err = server.ReadLine(br); err == nil && len(line) != 0 {
			err = replyErrorf("chunk of %d bytes does not end in CRLF", n)
		}
		if err != nil {
			return nil, err
		}
	}
}

// -------------------------------------------------------------- frame check

var errFrameShape = errors.New("frame holds more than was asked")

// parseRows checks a row leg's reply — the wire frame's CRC first, then that
// it holds exactly rows × arity cells — and hands each cell, aliasing body,
// to put.
func parseRows(body []byte, rows, arity int, put func(row, col int, val []byte)) error {
	h, err := wire.ParseFunc(body, func(row, col int, val []byte) error {
		if row >= rows || col >= arity {
			return errFrameShape
		}
		put(row, col, val)
		return nil
	})
	if err == nil && (h.Rows != uint64(rows) || h.Arity != uint32(arity)) {
		err = fmt.Errorf("frame holds %d rows of arity %d", h.Rows, h.Arity)
	}
	if err != nil {
		return fmt.Errorf("asked %d rows of arity %d: %w", rows, arity, err)
	}
	return nil
}
