package server

import (
	"net/http"
	"repro"
	"repro/internal/jsonx"
	"repro/internal/relation"
	"repro/internal/wire"
	"strconv"
	"sync"
	"unsafe"
)

// This file is the hand-rolled encoder tier: every hot probe response is
// appended into a pooled buffer by a shape-specific builder instead of going
// through encoding/json's reflection walk. The output is byte-identical to
// what `json.NewEncoder(w).Encode(map[string]any{...})` produced before —
// same alphabetical key order, same escaping table (HTML-escaped by default,
// like the Encoder), same trailing newline — which the equivalence tests in
// encode_test.go pin against encoding/json itself. Cold, reflection-shaped
// endpoints (meta, list, admin) stay on encoding/json: their cost is
// irrelevant and their payloads change shape with the registry.
//
// Answer cells are resolved a block at a time. On a dictionary larger than
// the cache, rendering one cell costs two dependent misses: the dictionary
// slot holding the string header, then the string's first byte. The JSON
// answer bodies (/access, /batch, /page, /sample, /enum/next) and the wire
// frames therefore share one resolver (cellBlock.fill) that takes up to
// blockCells cells of whole rows in three passes: load every cell's string
// header, prefetch every string's first byte, then render — so the misses
// of a block overlap instead of queueing. A row wider than a block renders
// cell by cell (appendCellString, appendWireCell), and FuzzAnswerBodies
// holds the two paths to the same bytes. The dictionary reads take no lock
// (see relation.Dict). The router's rows arrive rendered ([][]byte) and
// copy through unchanged.

// enc is one request's encoder state: the response buffer plus probe scratch
// (a tuple row for AccessInto, a position slice for batch parsing, a block of
// rows for small batches and pages), pooled so a steady-state request
// allocates nothing. The fast HTTP loop owns one per connection; the mux
// transport borrows from the pool per request.
type enc struct {
	buf   []byte
	row   renum.Tuple
	js    []int64
	query []byte        // the request's decoded query values (parseRequest)
	rows  []renum.Tuple // rowsFor's row headers, slicing flat
	flat  []renum.Value
	src   local // the daemon's Source of this request
}

// Retention caps: a pathological response (a 64k-position batch) must not pin
// megabytes in the pool forever.
const (
	maxRetainedBuf = 1 << 20
	maxRetainedJS  = 1 << 12
)

var encPool = sync.Pool{New: func() any { return &enc{buf: make([]byte, 0, 4096)} }}

func getEnc() *enc {
	e := encPool.Get().(*enc)
	e.buf = e.buf[:0]
	return e
}

func (e *enc) release() {
	if cap(e.buf) > maxRetainedBuf {
		e.buf = make([]byte, 0, 4096)
	}
	if cap(e.js) > maxRetainedJS {
		e.js = nil
	}
	if cap(e.query) > maxRetainedBuf {
		e.query = nil
	}
	e.src = local{} // pin no generation from the pool
	encPool.Put(e)
}

// rowFor returns the scratch tuple resized to arity.
func (e *enc) rowFor(arity int) renum.Tuple {
	if cap(e.row) < arity {
		e.row = make(renum.Tuple, arity)
	}
	e.row = e.row[:arity]
	return e.row
}

// jsFor returns the scratch position slice, emptied.
func (e *enc) jsFor() []int64 { return e.js[:0] }

// rowsFor returns n scratch rows of the given arity over one flat backing
// array. n is at most streamBatchThreshold, so the block stays small enough
// to keep pooled.
func (e *enc) rowsFor(n, arity int) []renum.Tuple {
	if cap(e.flat) < n*arity {
		e.flat = make([]renum.Value, n*arity)
	}
	if cap(e.rows) < n {
		e.rows = make([]renum.Tuple, n)
	}
	e.rows = e.rows[:n]
	for i := range e.rows {
		e.rows[i] = e.flat[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return e.rows
}

// ---------------------------------------------------------- JSON primitives

// appendJSONString appends s as a quoted JSON string using exactly
// encoding/json's default (HTML-escaping) table; the implementation lives in
// internal/jsonx so the shard router produces byte-identical bodies.
func appendJSONString(dst []byte, s string) []byte {
	return jsonx.AppendString(dst, s)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// Row is one answer as the body builders see it: a dictionary tuple on the
// daemon, whose cells render through the snapshot's dictionary, or a row of
// already-rendered cells on the router, where dict is nil and each cell
// aliases the shard reply it arrived in.
type Row interface{ renum.Tuple | [][]byte }

// appendOutside appends Dict.String's stable rendering "#N" of a value
// outside the dictionary, without the formatting allocation Dict.String
// pays. '#' and decimal digits need no JSON escaping, so both formats
// render it from here.
func appendOutside(dst []byte, v renum.Value) []byte {
	return strconv.AppendInt(append(dst, '#'), int64(v), 10)
}

// appendJSONCell renders one resolved value as a JSON string: its interned
// string s when in, otherwise its "#N" form.
func appendJSONCell(dst []byte, s string, in bool, v renum.Value) []byte {
	if in {
		return appendJSONString(dst, s)
	}
	return append(appendOutside(append(dst, '"'), v), '"')
}

// appendCellString renders one value as a JSON string, resolving it on its
// own: the per-cell path, for rows wider than a block.
func appendCellString(dst []byte, dict *renum.Dict, v renum.Value) []byte {
	s, in := dict.StringInterned(v)
	return appendJSONCell(dst, s, in, v)
}

// --------------------------------------------------------------- cell blocks

// blockCells is how many dictionary cells the encoders resolve together.
const blockCells = 64

// cellBlock is one block of answer cells resolved ahead of rendering: str[c]
// is the interned string of the block's c-th cell, and in[c] reports that it
// has one (a value outside the dictionary renders as "#N").
type cellBlock struct {
	str [blockCells]string
	in  [blockCells]bool
}

// fill resolves the cells of rows[i:k], for the largest k whose cells fit in
// one block, and returns k; k == i when rows[i] alone is wider than a block,
// and its caller renders it cell by cell. Each cell costs two dependent
// cache misses — the dictionary slot, then the string's bytes — so fill
// takes them a pass at a time: pass 1 loads every cell's string header,
// pass 2 prefetches every string's first byte, and the render that follows
// finds the lines arriving together instead of missing one after another.
func (b *cellBlock) fill(dict *renum.Dict, rows []renum.Tuple, i int) int {
	c, k := 0, i
	for ; k < len(rows) && c+len(rows[k]) <= blockCells; k++ {
		for _, v := range rows[k] {
			b.str[c], b.in[c] = dict.StringInterned(v)
			c++
		}
	}
	for _, s := range b.str[:c] {
		if len(s) > 0 {
			relation.Prefetch(unsafe.Pointer(unsafe.StringData(s)))
		}
	}
	return k
}

// appendTupleRows renders rows as comma-separated JSON arrays of strings,
// straight from the values — a tuple is never materialized as []string —
// resolving their cells a block at a time.
func appendTupleRows(dst []byte, dict *renum.Dict, rows []renum.Tuple) []byte {
	var b cellBlock
	for i := 0; i < len(rows); {
		k := b.fill(dict, rows, i)
		wide := k == i
		if wide {
			k++
		}
		c := 0
		for ; i < k; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for j, v := range rows[i] {
				if j > 0 {
					dst = append(dst, ',')
				}
				if wide {
					dst = appendCellString(dst, dict, v)
					continue
				}
				dst = appendJSONCell(dst, b.str[c], b.in[c], v)
				c++
			}
			dst = append(dst, ']')
		}
	}
	return dst
}

// appendRow renders one answer as a JSON array of strings.
func appendRow[R Row](dst []byte, dict *renum.Dict, row R) []byte {
	switch r := any(row).(type) {
	case renum.Tuple:
		return appendTupleRows(dst, dict, []renum.Tuple{r})
	case [][]byte:
		dst = append(dst, '[')
		for i, c := range r {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonx.AppendString(dst, c)
		}
		return append(dst, ']')
	}
	return dst
}

// ---------------------------------------------------------- response bodies
//
// One builder per response shape; keys appear in the alphabetical order
// encoding/json gives map keys, and every body ends with the Encoder's '\n'.

var (
	healthzBody = []byte("{\"ok\":true}\n")
	closedBody  = []byte("{\"closed\":true}\n")
)

func appendReadyzBody(dst []byte, ready bool, gen uint64) []byte {
	dst = append(dst, `{"generation":`...)
	dst = strconv.AppendUint(dst, gen, 10)
	dst = append(dst, `,"ready":`...)
	dst = appendBool(dst, ready)
	return append(dst, '}', '\n')
}

func appendCountBody(dst []byte, n int64) []byte {
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, '}', '\n')
}

func appendAccessBody[R Row](dst []byte, dict *renum.Dict, j int64, t R) []byte {
	dst = append(dst, `{"answer":`...)
	dst = appendRow(dst, dict, t)
	dst = append(dst, `,"j":`...)
	dst = strconv.AppendInt(dst, j, 10)
	return append(dst, '}', '\n')
}

// Answers bodies are assembled in three steps — openAnswersBody, one
// appendAnswersRow per row, then the closer carrying the op's trailing key.
func openAnswersBody(dst []byte) []byte { return append(dst, `{"answers":[`...) }

func appendAnswersRow[R Row](dst []byte, dict *renum.Dict, first bool, t R) []byte {
	if !first {
		dst = append(dst, ',')
	}
	return appendRow(dst, dict, t)
}

// appendAnswersRows opens an answers body and appends every row; the caller
// picks the closer.
func appendAnswersRows[R Row](dst []byte, dict *renum.Dict, rows []R) []byte {
	dst = openAnswersBody(dst)
	if ts, ok := any(rows).([]renum.Tuple); ok {
		return appendTupleRows(dst, dict, ts)
	}
	for i, t := range rows {
		dst = appendAnswersRow(dst, dict, i == 0, t)
	}
	return dst
}

func closeAnswersBody(dst []byte) []byte { return append(dst, ']', '}', '\n') }

func closeAnswersOffsetBody(dst []byte, offset int64) []byte {
	dst = append(dst, `],"offset":`...)
	dst = strconv.AppendInt(dst, offset, 10)
	return append(dst, '}', '\n')
}

func closeAnswersDoneBody(dst []byte, done bool) []byte {
	dst = append(dst, `],"done":`...)
	dst = appendBool(dst, done)
	return append(dst, '}', '\n')
}

func closeAnswersWithReplacementBody(dst []byte, withReplacement bool) []byte {
	dst = append(dst, `],"with_replacement":`...)
	dst = appendBool(dst, withReplacement)
	return append(dst, '}', '\n')
}

func appendAnswersBody[R Row](dst []byte, dict *renum.Dict, rows []R) []byte {
	return closeAnswersBody(appendAnswersRows(dst, dict, rows))
}

func appendContainsBody(dst []byte, contains bool) []byte {
	dst = append(dst, `{"contains":`...)
	dst = appendBool(dst, contains)
	return append(dst, '}', '\n')
}

func appendInvertedBody(dst []byte, j int64, found bool) []byte {
	if !found {
		return append(dst, "{\"found\":false}\n"...)
	}
	dst = append(dst, `{"found":true,"j":`...)
	dst = strconv.AppendInt(dst, j, 10)
	return append(dst, '}', '\n')
}

func appendChangedBody(dst []byte, changed bool, count int64) []byte {
	dst = append(dst, `{"changed":`...)
	dst = appendBool(dst, changed)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, count, 10)
	return append(dst, '}', '\n')
}

func appendCursorBody(dst []byte, id string, ttlMS int64) []byte {
	dst = append(dst, `{"cursor":`...)
	dst = appendJSONString(dst, id)
	dst = append(dst, `,"ttl_ms":`...)
	dst = strconv.AppendInt(dst, ttlMS, 10)
	return append(dst, '}', '\n')
}

func appendErrorBody(dst []byte, msg string) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendJSONString(dst, msg)
	return append(dst, '}', '\n')
}

// Sentinel error responses recur verbatim (expired cursors under TTL churn,
// busy cursors under racing readers): preformatted once, written directly.
var (
	noCursorBody   = appendErrorBody(nil, ErrNoCursor.Error())
	cursorBusyBody = appendErrorBody(nil, ErrCursorBusy.Error())
)

// errorBody returns the {"error": msg} body: the preformatted bytes for
// sentinel messages, appended to dst otherwise.
func errorBody(dst []byte, msg string) []byte {
	switch msg {
	case ErrNoCursor.Error():
		return noCursorBody
	case ErrCursorBusy.Error():
		return cursorBusyBody
	}
	return appendErrorBody(dst, msg)
}

// ------------------------------------------------------------- wire bodies

// appendWireValue appends one resolved value as a length-prefixed wire cell,
// with the same interned-or-"#N" rendering as appendJSONCell.
func appendWireValue(dst []byte, s string, in bool, v renum.Value) []byte {
	if in {
		return wire.AppendCell(dst, s)
	}
	var num [24]byte
	return wire.AppendCellBytes(dst, appendOutside(num[:0], v))
}

// appendWireCell appends one value as a wire cell, resolving it on its own:
// the per-cell path, for rows wider than a block.
func appendWireCell(dst []byte, dict *renum.Dict, v renum.Value) []byte {
	s, in := dict.StringInterned(v)
	return appendWireValue(dst, s, in, v)
}

// appendWireTuples appends the cells of rows, resolved a block at a time
// like appendTupleRows.
func appendWireTuples(dst []byte, dict *renum.Dict, rows []renum.Tuple) []byte {
	var b cellBlock
	for i := 0; i < len(rows); {
		k := b.fill(dict, rows, i)
		if k == i {
			for _, v := range rows[i] {
				dst = appendWireCell(dst, dict, v)
			}
			i++
			continue
		}
		c := 0
		for _, row := range rows[i:k] {
			for _, v := range row {
				dst = appendWireValue(dst, b.str[c], b.in[c], v)
				c++
			}
		}
		i = k
	}
	return dst
}

// appendWireRows frames rows as one binary wire message (header + cells +
// CRC) appended to dst — the same format on the client edge and on the
// router-to-shard hop.
func appendWireRows[R Row](dst []byte, dict *renum.Dict, rows []R, arity int, flags uint32, aux uint64) []byte {
	start := len(dst)
	dst = wire.AppendHeader(dst, wire.Header{
		Flags: flags,
		Arity: uint32(arity),
		Rows:  uint64(len(rows)),
		Aux:   aux,
	})
	switch rs := any(rows).(type) {
	case []renum.Tuple:
		dst = appendWireTuples(dst, dict, rs)
	case [][][]byte:
		for _, r := range rs {
			for _, c := range r {
				dst = wire.AppendCellBytes(dst, c)
			}
		}
	}
	return wire.Finish(dst, start)
}

// wantsWire reports whether the request negotiated the binary format. A
// simple token scan: exact media type anywhere in Accept opts in (clients
// that want it say exactly that; there is no q-value dance worth doing).
func wantsWire(r *http.Request) bool {
	return acceptIsWire(r.Header.Get("Accept"))
}

// acceptIsWire scans an Accept header value — a string from net/http, raw
// bytes in the fast loop — for the wire media type. Tokens are trimmed of
// optional whitespace (SP/HTAB) only, parameters after ';' ignored.
func acceptIsWire[T string | []byte](accept T) bool {
	for len(accept) > 0 {
		part := accept
		if i := indexByte(accept, ','); i >= 0 {
			part, accept = accept[:i], accept[i+1:]
		} else {
			accept = accept[:0]
		}
		if i := indexByte(part, ';'); i >= 0 {
			part = part[:i]
		}
		if string(trimOWS(part)) == wire.ContentType {
			return true
		}
	}
	return false
}

func indexByte[T string | []byte](s T, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// trimOWS strips optional whitespace (space/tab) from both ends.
func trimOWS[T string | []byte](s T) T {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// writeNegotiated sends a fully built body under the content type the core
// framed it for.
func writeNegotiated(w http.ResponseWriter, body []byte, isWire bool) error {
	ct := "application/json"
	if isWire {
		ct = wire.ContentType
	}
	w.Header().Set("Content-Type", ct)
	_, err := w.Write(body)
	return err
}
