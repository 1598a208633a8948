package server

import (
	"bytes"
	"net/http"
	"strconv"
)

// query reads parameters off one raw query string for both transports: the
// mux passes r.URL.RawQuery, the fast loop its target's query. get is
// url.ParseQuery(raw).Get(name) over the bytes: a pair holding ';' is
// skipped, a key or value with a bad escape drops its pair, '+' is a space,
// and the first surviving occurrence wins. Only a key or value holding '%'
// or '+' is decoded, into *scratch, so a plain query allocates nothing.
// FuzzQueryScanner holds get to net/url.
type query struct {
	raw     []byte
	scratch *[]byte // decoded values, appended: a returned one stays valid
}

// get returns name's value, nil when absent. It aliases raw or *scratch.
func (q query) get(name string) []byte {
	for raw := q.raw; len(raw) > 0; {
		var pair []byte
		pair, raw, _ = bytes.Cut(raw, []byte("&"))
		if len(pair) == 0 || bytes.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := bytes.Cut(pair, []byte("="))
		mark := len(*q.scratch)
		k, ok := q.unescape(k)
		ok = ok && string(k) == name
		*q.scratch = (*q.scratch)[:mark] // a key is compared, not kept
		if !ok {
			continue
		}
		if v, ok = q.unescape(v); ok {
			return v
		}
	}
	return nil
}

// unescape decodes a query component the way url.QueryUnescape does, into
// *scratch when it holds '%' or '+'; ok is false on a bad escape.
func (q query) unescape(s []byte) ([]byte, bool) {
	if bytes.IndexByte(s, '%') < 0 && bytes.IndexByte(s, '+') < 0 {
		return s, true
	}
	b := *q.scratch
	mark := len(b)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '%':
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				*q.scratch = b[:mark]
				return nil, false
			}
			b = append(b, unhex(s[i+1])<<4|unhex(s[i+2]))
			i += 2
		case '+':
			b = append(b, ' ')
		default:
			b = append(b, c)
		}
	}
	*q.scratch = b
	return b[mark:], true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c <= 'F':
		return c - 'A' + 10
	}
	return c - 'a' + 10
}

// int reads an integer parameter: absent or empty takes def, and a bad one
// is a 400 carrying strconv's error text.
func (q query) int(name string, def int64) (int64, error) {
	v := q.get(name)
	if len(v) == 0 {
		return def, nil
	}
	return parseParam(name, v)
}

// js appends the comma-separated position list of ?js= to dst (the pooled
// scratch), with strings.Split semantics: segments are space-trimmed, empty
// segments skipped.
func (q query) js(dst []int64) ([]int64, error) {
	for s := q.get("js"); len(s) > 0; {
		var part []byte
		part, s, _ = bytes.Cut(s, []byte(","))
		if part = bytes.TrimSpace(part); len(part) == 0 {
			continue
		}
		j, err := parseParam("js", part)
		if err != nil {
			return dst, err
		}
		dst = append(dst, j)
	}
	return dst, nil
}

// parseParam is strconv.ParseInt(string(v), 10, 64) without the string on
// the good path, its error a 400 naming the parameter.
func parseParam(name string, v []byte) (int64, error) {
	if n, ok := parseInt64Bytes(v); ok {
		return n, nil
	}
	_, err := strconv.ParseInt(string(v), 10, 64)
	return 0, HTTPErrorf(http.StatusBadRequest, "%s: %v", name, err)
}
