package router

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// scriptConn is a shard connection that plays back fixed bytes. When they
// run out a read fails once — with the deadline error when hang is set, as a
// shard that stopped talking would make it, with EOF otherwise — and any read
// after that is the reader running past a failure.
type scriptConn struct {
	net.Conn // nil: every method the client uses is overridden below
	data     []byte
	hang     bool
	failed   bool
	overrun  bool
	deadline time.Time
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.data) > 0 {
		n := copy(p, c.data)
		c.data = c.data[n:]
		return n, nil
	}
	if c.failed {
		c.overrun = true
	}
	c.failed = true
	if c.hang {
		return 0, os.ErrDeadlineExceeded
	}
	return 0, io.EOF
}

func (c *scriptConn) Write(p []byte) (int, error)   { return len(p), nil }
func (c *scriptConn) Close() error                  { return nil }
func (c *scriptConn) SetDeadline(t time.Time) error { c.deadline = t; return nil }

func testShard(t testing.TB, base string) *shard {
	t.Helper()
	sh, err := newShard(base, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// frame renders rows×arity cells under a header that claims hdrRows×hdrArity.
func frame(hdrRows, hdrArity, cells int) []byte {
	b := wire.AppendHeader(nil, wire.Header{Rows: uint64(hdrRows), Arity: uint32(hdrArity)})
	for i := 0; i < cells; i++ {
		b = wire.AppendCell(b, fmt.Sprintf("c%d", i))
	}
	return wire.Finish(b, 0)
}

func reply(status, headers string, body []byte) []byte {
	return append([]byte("HTTP/1.1 "+status+"\r\n"+headers+"\r\n"), body...)
}

func lengthReply(body []byte) []byte {
	return reply("200 OK", fmt.Sprintf("Content-Type: %s\r\nContent-Length: %d\r\n", wire.ContentType, len(body)), body)
}

func chunkedReply(body []byte, cut int) []byte {
	b := []byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
	b = append(b, fmt.Sprintf("%x;ext=1\r\n%s\r\n%X\r\n%s\r\n0\r\nTrailer: t\r\n\r\n", cut, body[:cut], len(body)-cut, body[cut:])...)
	return b
}

// FuzzShardReply plays arbitrary bytes as a shard's reply to a /batch of k
// positions of a 3-column query, through recv (the response reader, the
// status mapping) and parseRows (the frame check): the shard is the
// adversary. Whatever it sends, the hop does not panic, stops reading at the
// first failed read, holds no more memory than the bytes that arrived
// warrant, and ends in exactly k rows of 3 cells out of a CRC-valid frame —
// or in a shardError.
func FuzzShardReply(f *testing.F) {
	good := frame(2, 3, 6)
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0x40
	for _, seed := range [][]byte{
		lengthReply(good),
		chunkedReply(good, 17),
		lengthReply(good)[:30], // truncated head
		bytes.ReplaceAll(lengthReply(good), []byte("\r\n"), []byte("\n")), // bare-LF lines
		reply("200 OK", fmt.Sprintf("Content-Length: %d\r\nTransfer-Encoding: chunked\r\n", len(good)), good),
		reply("200 OK", "Content-Length: 5\r\nContent-Length: 6\r\n", good),
		[]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nabc\r\n0\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXX0\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffffff\r\n"),
		append([]byte("HTTP/1.1 100 Continue\r\n\r\n"), lengthReply(good)...),
		reply("200 OK", "Connection: close\r\n", good), // framed by the end of the stream
		lengthReply(flipped),
		lengthReply(frame(1, 3, 3)), // rows != asked
		lengthReply(frame(3, 3, 9)),
		lengthReply(frame(2, 2, 4)), // a valid frame of the wrong arity
		lengthReply(frame(2, 3, 5)), // one cell short
		reply("500 Internal Server Error", "Content-Length: 27\r\n", []byte("{\"error\":\"injected fault\"}\n")),
		reply("502 Bad Gateway", "Content-Length: 4\r\n", []byte("oops")),
		reply("200 OK", "Content-Length: 999999999\r\n", []byte("ten bytes!")),
		[]byte("HTTP/2 200\r\n\r\n"),
		[]byte("HTTP/1.1 2000 OK\r\n\r\n"),
		{},
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, hang bool) {
		const k, arity = 2, 3
		sh := testShard(t, "http://shard.test:1")
		nc := &scriptConn{data: data, hang: hang}
		c := &conn{nc: nc, br: bufio.NewReader(nc)}
		var rows [k][arity][]byte
		body, err := sh.recv(context.Background(), c)
		if err == nil {
			err = parseRows(body, k, arity, func(row, col int, val []byte) { rows[row][col] = val })
			if err != nil {
				err = sh.fail(err)
			}
		}
		if nc.overrun {
			t.Fatal("read again after a failed read")
		}
		if cap(body) > 4*len(data)+128<<10 {
			t.Fatalf("reply of %d bytes holds a %d-byte buffer", len(data), cap(body))
		}
		if err != nil {
			var se *shardError
			if !errors.As(err, &se) {
				t.Fatalf("error %v (%T) is not a shardError", err, err)
			}
			return
		}
		_, want, err := wire.Parse(body)
		if err != nil || len(want) != k {
			t.Fatalf("accepted a reply wire.Parse reads as %d rows, %v", len(want), err)
		}
		for i, row := range want {
			if len(row) != arity {
				t.Fatalf("accepted row %d of arity %d", i, len(row))
			}
			for j, cell := range row {
				if string(rows[i][j]) != cell {
					t.Fatalf("cell %d,%d = %q, frame holds %q", i, j, rows[i][j], cell)
				}
			}
		}
	})
}

// TestReplySmallOnBigClaim: a Content-Length is a claim, not an allocation.
func TestReplySmallOnBigClaim(t *testing.T) {
	data := reply("200 OK", "Content-Length: 999999999\r\n", []byte("ten bytes!"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readReply(bufio.NewReader(bytes.NewReader(data)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Fatalf("a 10-byte body under a 999999999-byte claim allocated %d bytes", got)
	}
	if _, _, _, err := readReply(bufio.NewReader(strings.NewReader("HTTP/1.1 200 OK\r\nContent-Length: 1073741825\r\n\r\n"))); !errors.Is(err, errReply) {
		t.Fatalf("a body above the cap: err = %v", err)
	}
}

// rawShard is a TCP listener that serves whatever serve does with each
// accepted connection, counting connections and requests.
type rawShard struct {
	ln          net.Listener
	conns, reqs atomic.Int64
}

func newRawShard(t *testing.T, serve func(s *rawShard, c net.Conn, br *bufio.Reader)) *rawShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawShard{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			go func() {
				defer c.Close()
				serve(s, c, bufio.NewReader(c))
			}()
		}
	}()
	return s
}

// next reads one request off the connection; false when the peer is gone.
func (s *rawShard) next(br *bufio.Reader) bool {
	req, err := http.ReadRequest(br)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, req.Body)
	s.reqs.Add(1)
	return true
}

// TestStaleConnectionRedials pins when a leg is sent twice. A pooled
// connection the shard closed while it idled — a restart, an idle timeout —
// costs the next request one redial, not a 502. A shard that dies after
// sending part of a reply is a 502 and the request is not sent again.
func TestStaleConnectionRedials(t *testing.T) {
	ctx := context.Background()
	const ok = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"

	t.Run("restart", func(t *testing.T) {
		f := newFleetOf(t, 2, "fast")
		want, _ := exchange(f.ref, "GET", "/v1/Q/access?j=0", "", "")
		for i := 0; i < 3; i++ {
			f.kill(0)
			f.revive(t, 0)
			got, code := exchange(f.rt.Handler(), "GET", "/v1/Q/access?j=0", "", "")
			if code != 200 || !bytes.Equal(got, want) {
				t.Fatalf("access after restart %d: %d %s", i, code, got)
			}
		}
		sh := f.rt.table.Load().shards[0]
		if got := sh.redials.Value(); got != 3 {
			t.Fatalf("redials = %d, want 3", got)
		}
		if !f.rt.Ready() || sh.errs.Value() != 0 {
			t.Fatalf("a redial counted as a fault: ready %v, errors %d", f.rt.Ready(), sh.errs.Value())
		}
	})

	t.Run("closed while idle", func(t *testing.T) {
		// One request per connection, closed without saying so.
		s := newRawShard(t, func(s *rawShard, c net.Conn, br *bufio.Reader) {
			if s.next(br) {
				io.WriteString(c, ok)
			}
		})
		sh := testShard(t, "http://"+s.ln.Addr().String())
		for i := 0; i < 3; i++ {
			if body, err := sh.do(ctx, "GET", "/x", nil); err != nil || string(body) != "ok" {
				t.Fatalf("request %d: %q, %v", i, body, err)
			}
		}
		if sh.redials.Value() != 2 || s.conns.Load() != 3 || s.reqs.Load() != 3 {
			t.Fatalf("redials %d, connections %d, requests %d; want 2, 3, 3", sh.redials.Value(), s.conns.Load(), s.reqs.Load())
		}
	})

	t.Run("dies mid-reply", func(t *testing.T) {
		// The second request on a connection gets half a reply.
		s := newRawShard(t, func(s *rawShard, c net.Conn, br *bufio.Reader) {
			if s.next(br) {
				io.WriteString(c, ok)
			}
			if s.next(br) {
				io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nhalf")
			}
		})
		sh := testShard(t, "http://"+s.ln.Addr().String())
		if _, err := sh.do(ctx, "GET", "/x", nil); err != nil {
			t.Fatal(err)
		}
		_, err := sh.do(ctx, "GET", "/x", nil)
		var se *shardError
		if !errors.As(err, &se) || se.HTTPStatus() != http.StatusBadGateway || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("half a reply: err = %v", err)
		}
		if sh.redials.Value() != 0 || s.conns.Load() != 1 || s.reqs.Load() != 2 {
			t.Fatalf("redials %d, connections %d, requests %d; want 0, 1, 2", sh.redials.Value(), s.conns.Load(), s.reqs.Load())
		}
		if sh.up.Load() {
			t.Fatal("shard still healthy after dying mid-reply")
		}
	})

	t.Run("silent past the deadline", func(t *testing.T) {
		// A pooled connection that times out is a slow shard, not a stale
		// socket: no second attempt.
		s := newRawShard(t, func(s *rawShard, c net.Conn, br *bufio.Reader) {
			if s.next(br) {
				io.WriteString(c, ok)
			}
			s.next(br)
			time.Sleep(300 * time.Millisecond)
		})
		sh := testShard(t, "http://"+s.ln.Addr().String())
		if _, err := sh.do(ctx, "GET", "/x", nil); err != nil {
			t.Fatal(err)
		}
		short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel()
		if _, err := sh.do(short, "GET", "/x", nil); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("err = %v, want the deadline", err)
		}
		if sh.redials.Value() != 0 || s.conns.Load() != 1 {
			t.Fatalf("redials %d, connections %d; want 0, 1", sh.redials.Value(), s.conns.Load())
		}
	})
}

func TestNewShardRejectsBadURLs(t *testing.T) {
	for _, base := range []string{"", "127.0.0.1:80", "ftp://host", "http://"} {
		if _, err := newShard(base, obs.NewRegistry()); err == nil {
			t.Errorf("newShard(%q) accepted", base)
		}
	}
	sh := testShard(t, "https://shard.example/fleet/a")
	if sh.addr != "shard.example:443" || !sh.tls || sh.prefix != "/fleet/a" {
		t.Fatalf("https shard resolved to %+v", sh)
	}
}
