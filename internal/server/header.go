package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
)

// This file is the tier's one HTTP/1.1 line and header reader: the fast
// loop reads requests with it, the router's shard client reads replies. It
// is total on hostile bytes and refuses an oversize line, Content-Length
// fields that disagree, obs-fold (a field name must be a token) and more
// than maxHeaderFields fields.

const maxHeaderFields = 128

// ErrTooManyFields: a header block held more than maxHeaderFields fields.
var ErrTooManyFields = errors.New("too many headers")

// HeaderError is a header block that breaks the framing rules; a request
// carrying one is answered 400 and its connection closed.
type HeaderError string

func (e HeaderError) Error() string { return string(e) }

// ReadLine returns the next line of br without its CRLF (or bare LF),
// aliasing br's buffer. A line longer than the buffer is
// bufio.ErrBufferFull, and a stream that ends first io.ErrUnexpectedEOF.
func ReadLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// Framing is what framing one message takes from its header block.
type Framing struct {
	Length  int64 // Content-Length; -1 when absent
	TE      int   // Transfer-Encoding fields
	Chunked bool  // exactly one Transfer-Encoding field, and it says chunked
	Close   bool  // Connection: close
}

// ReadHeader reads one header block, up to and including its empty line,
// into f, handing every field to field (when not nil) with its value trimmed;
// both alias br's buffer. What a Transfer-Encoding means is the caller's to
// decide.
func ReadHeader(br *bufio.Reader, f *Framing, field func(name, val []byte)) error {
	*f = Framing{Length: -1}
	for n := 0; ; n++ {
		line, err := ReadLine(br)
		if err != nil || len(line) == 0 {
			return err
		}
		if n == maxHeaderFields {
			return ErrTooManyFields
		}
		name, val, ok := bytes.Cut(line, []byte(":"))
		if !ok || !isToken(name) {
			return HeaderError("malformed header")
		}
		if val = trimOWS(val); hasCTL(val) {
			return HeaderError("invalid header value")
		}
		switch {
		case asciiEqualFold(name, "content-length"):
			// Digits only: no sign, no second opinion.
			v, ok := parseInt64Bytes(val)
			if !ok || val[0] < '0' || val[0] > '9' {
				return HeaderError("bad content-length")
			}
			if f.Length >= 0 && f.Length != v {
				return HeaderError("conflicting content-length")
			}
			f.Length = v
		case asciiEqualFold(name, "transfer-encoding"):
			f.TE++
			f.Chunked = f.TE == 1 && asciiEqualFold(val, "chunked")
		case asciiEqualFold(name, "connection"):
			f.Close = f.Close || tokenListHasFold(val, "close")
		}
		if field != nil {
			field(name, val)
		}
	}
}

// tokenByte marks the bytes of an RFC 9110 token (tchar).
var tokenByte = func() (t [256]bool) {
	for c := '!'; c <= '~'; c++ {
		t[c] = !strings.ContainsRune(`"(),/:;<=>?@[\]{}`, c)
	}
	return t
}()

func isToken(b []byte) bool {
	for _, c := range b {
		if !tokenByte[c] {
			return false
		}
	}
	return len(b) > 0
}

// hasCTL reports a control byte other than HTAB in a header field value;
// net/http answers those 400 as well.
func hasCTL(b []byte) bool {
	for _, c := range b {
		if c < ' ' && c != '\t' || c == 0x7f {
			return true
		}
	}
	return false
}

// asciiEqualFold compares b to the lowercase ASCII string s, case-folding b.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// tokenListHasFold reports whether the comma-separated token list contains
// tok (lowercase).
func tokenListHasFold(b []byte, tok string) bool {
	for len(b) > 0 {
		var part []byte
		if i := bytes.IndexByte(b, ','); i >= 0 {
			part, b = b[:i], b[i+1:]
		} else {
			part, b = b, nil
		}
		if asciiEqualFold(trimOWS(part), tok) {
			return true
		}
	}
	return false
}
