package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"time"

	"repro/internal/wire"
)

// kind is one request shape of the serving API.
type kind uint8

const (
	kAccess kind = iota
	kCount
	kBatch     // GET /batch, JSON reply
	kBatchWire // GET /batch with Accept: application/x-renum-bin
	kPage
	kSample
	kEnumNext
	kUpdate
	kContains
	kHealthz
	numKinds
)

var kindNames = [numKinds]string{"access", "count", "batch", "batch_wire", "page", "sample", "enum_next", "update", "contains", "healthz"}

func (k kind) String() string { return kindNames[k] }

// isRead reports whether the request leaves the served state alone.
func (k kind) isRead() bool { return k != kUpdate }

// request is one generated request, kept in typed form so that every rung
// of the layer ladder — index, handle, handler, socket — can execute the
// same sample its own way, and the oracle can say what the reply must be.
type request struct {
	kind  kind
	j     int64    // access: position; page: offset; sample: seed
	n     int64    // page: limit; sample: k; enum_next: n
	js    []int64  // batch positions
	op    string   // update: "insert" or "delete"
	rel   string   // update: the base relation
	cells []string // update: the tuple; contains: the answer tuple
	first bool     // enum_next: the first draw after the cursor's start
	seed  int64    // enum_next with first: the cursor's seed
}

// appendHTTP renders r as HTTP/1.1 request bytes. cursor is the connection's
// current enumeration cursor id (enum_next only).
func (r *request) appendHTTP(dst []byte, cursor []byte) []byte {
	const base = "/v1/" + queryName
	get := func(path string) { dst = append(append(dst, "GET "...), path...) }
	end := func(accept string, body []byte) {
		dst = append(dst, " HTTP/1.1\r\nHost: l\r\n"...)
		if accept != "" {
			dst = append(append(append(dst, "Accept: "...), accept...), '\r', '\n')
		}
		if body != nil {
			dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
			dst = strconv.AppendInt(dst, int64(len(body)), 10)
			dst = append(dst, '\r', '\n')
		}
		dst = append(dst, '\r', '\n')
		dst = append(dst, body...)
	}
	switch r.kind {
	case kAccess:
		get(base + "/access?j=")
		dst = strconv.AppendInt(dst, r.j, 10)
		end("", nil)
	case kCount:
		get(base + "/count")
		end("", nil)
	case kBatch, kBatchWire:
		get(base + "/batch?js=")
		for i, j := range r.js {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, j, 10)
		}
		if r.kind == kBatchWire {
			end(wire.ContentType, nil)
		} else {
			end("", nil)
		}
	case kPage:
		get(base + "/page?limit=")
		dst = strconv.AppendInt(dst, r.n, 10)
		dst = append(dst, "&offset="...)
		dst = strconv.AppendInt(dst, r.j, 10)
		end("", nil)
	case kSample:
		get(base + "/sample?k=")
		dst = strconv.AppendInt(dst, r.n, 10)
		dst = append(dst, "&seed="...)
		dst = strconv.AppendInt(dst, r.j, 10)
		end("", nil)
	case kEnumNext:
		get(base + "/enum/next?n=")
		dst = strconv.AppendInt(dst, r.n, 10)
		dst = append(dst, "&cursor="...)
		dst = append(dst, cursor...)
		end("", nil)
	case kUpdate:
		dst = append(dst, "POST "+base+"/update"...)
		body := append([]byte(nil), `{"op":"`...)
		body = append(body, r.op...)
		body = append(body, `","relation":"`...)
		body = append(body, r.rel...)
		body = append(body, `","tuple":`...)
		body = appendCells(body, r.cells)
		body = append(body, '}')
		end("", body)
	case kContains:
		dst = append(dst, "POST "+base+"/contains"...)
		body := append([]byte(nil), `{"tuple":`...)
		body = appendCells(body, r.cells)
		body = append(body, '}')
		end("", body)
	case kHealthz:
		get("/healthz")
		end("", nil)
	}
	return dst
}

// client is one persistent HTTP/1.1 connection with reusable scratch: a
// round trip allocates nothing in steady state, so the generator's own cost
// stays small next to what it measures.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func (c *client) dial(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return err
	}
	c.conn = conn
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 64<<10)
	} else {
		c.br.Reset(conn)
	}
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

var (
	hdrContentLength = []byte("content-length:")
	hdrChunked       = []byte("transfer-encoding: chunked")
	errNoLength      = errors.New("bench: response with neither Content-Length nor chunked encoding")
	errBadChunk      = errors.New("bench: malformed chunked response")
)

// roundTrip writes one request and reads the whole reply; the body stays in
// c.body until the next call. The fast loop always sends Content-Length;
// net/http (the router, -http std) switches to chunked encoding for bodies
// above its 2 KiB buffer, so both framings are read.
func (c *client) roundTrip(req []byte) (status int, err error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, err
	}
	clen, chunked := -1, false
	for first := true; ; first = false {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if first {
			// "HTTP/1.1 200 OK"
			if len(line) < 12 {
				return 0, errors.New("bench: short status line")
			}
			status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
			continue
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > len(hdrContentLength) && bytes.EqualFold(line[:len(hdrContentLength)], hdrContentLength) {
			clen = 0
			for _, d := range bytes.TrimSpace(line[len(hdrContentLength):]) {
				if d < '0' || d > '9' {
					return 0, errNoLength
				}
				clen = clen*10 + int(d-'0')
			}
		} else if len(line) >= len(hdrChunked) && bytes.EqualFold(line[:len(hdrChunked)], hdrChunked) {
			chunked = true
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		return status, c.readChunked()
	case clen < 0:
		return 0, errNoLength
	}
	return status, c.readN(clen)
}

// readN appends the next n bytes of the stream to c.body.
func (c *client) readN(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		grown := make([]byte, at, 2*(at+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}

func (c *client) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, ok := parseHex(line)
		if !ok {
			return errBadChunk
		}
		if size > 0 {
			if err := c.readN(size); err != nil {
				return err
			}
		}
		// The CRLF after the chunk data, or — after the last chunk — the
		// empty trailer section.
		if tail, err := c.br.ReadSlice('\n'); err != nil {
			return err
		} else if len(tail) > 2 {
			return errBadChunk
		}
		if size == 0 {
			return nil
		}
	}
}

// parseHex reads the leading hexadecimal digits of a chunk-size line.
func parseHex(line []byte) (n int, ok bool) {
	for _, d := range line {
		switch {
		case d >= '0' && d <= '9':
			n = n<<4 | int(d-'0')
		case d >= 'a' && d <= 'f':
			n = n<<4 | int(d-'a'+10)
		case d >= 'A' && d <= 'F':
			n = n<<4 | int(d-'A'+10)
		default:
			return n, ok
		}
		ok = true
	}
	return n, ok
}

// do is dial-if-needed plus roundTrip, for the cold paths (admin calls,
// final checks).
func (c *client) do(addr string, req []byte) (int, []byte, error) {
	if c.conn == nil {
		if err := c.dial(addr); err != nil {
			return 0, nil, err
		}
	}
	status, err := c.roundTrip(req)
	return status, c.body, err
}

func simpleRequest(method, path string) []byte {
	return []byte(method + " " + path + " HTTP/1.1\r\nHost: l\r\n\r\n")
}
