package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"repro"
	"repro/internal/wire"
)

// A checker decides whether a reply is the right one. Every client
// connection owns one (they hold scratch); they share the in-process handle.
type checker interface {
	check(r *request, status int, body []byte) error
}

// staticOracle says, byte for byte, what a daemon serving a static index
// must reply: it holds an in-process renum.Open on the same inputs and
// writes the documented response shapes with its own few lines of encoding,
// sharing no code with internal/server's encoders (cell escaping is
// encoding/json's, which is the behaviour the server pins itself to).
type staticOracle struct {
	h     *renum.Handle
	dict  *renum.Dict
	inv   renum.Inverter
	smp   renum.Sampler
	count int64
	row   renum.Tuple
	buf   []byte
}

func newStaticOracle(db *renum.Database, h *renum.Handle) (*staticOracle, error) {
	inv, err := h.Inverter()
	if err != nil {
		return nil, err
	}
	smp, err := h.Sampler()
	if err != nil {
		return nil, err
	}
	return &staticOracle{h: h, dict: db.Dict(), inv: inv, smp: smp, count: h.Count(), row: make(renum.Tuple, len(h.Head()))}, nil
}

// fork returns an oracle over the same handle with scratch of its own.
func (o *staticOracle) fork() *staticOracle {
	c := *o
	c.row = make(renum.Tuple, len(o.row))
	c.buf = nil
	return &c
}

func appendQuoted(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendCells(dst []byte, cells []string) []byte {
	dst = append(dst, '[')
	for i, c := range cells {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendQuoted(dst, c)
	}
	return append(dst, ']')
}

func (o *staticOracle) appendTuple(dst []byte, t renum.Tuple) []byte {
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendQuoted(dst, o.dict.String(v))
	}
	return append(dst, ']')
}

// appendRows renders the answers at the given positions as a JSON array
// body ("[...],[...]" without the outer brackets).
func (o *staticOracle) appendRows(dst []byte, n int, pos func(i int) int64) ([]byte, error) {
	for i := 0; i < n; i++ {
		if err := o.h.AccessInto(pos(i), o.row); err != nil {
			return nil, err
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = o.appendTuple(dst, o.row)
	}
	return dst, nil
}

func (o *staticOracle) appendTuples(dst []byte, ts []renum.Tuple) []byte {
	for i, t := range ts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = o.appendTuple(dst, t)
	}
	return dst
}

// pageLen is how many rows /page?offset=&limit= returns.
func pageLen(count, offset, limit int64) int64 {
	if offset >= count {
		return 0
	}
	if limit > count-offset {
		return count - offset
	}
	return limit
}

// expected appends the body a correct daemon sends for r. Stateful cursor
// draws other than the first have no fixed expectation; see checkEnumNext.
func (o *staticOracle) expected(dst []byte, r *request) ([]byte, error) {
	var err error
	switch r.kind {
	case kAccess:
		dst = append(dst, `{"answer":`...)
		if dst, err = o.appendRows(dst, 1, func(int) int64 { return r.j }); err != nil {
			return nil, err
		}
		dst = append(dst, `,"j":`...)
		dst = strconv.AppendInt(dst, r.j, 10)
		return append(dst, "}\n"...), nil
	case kCount:
		dst = append(dst, `{"count":`...)
		dst = strconv.AppendInt(dst, o.count, 10)
		return append(dst, "}\n"...), nil
	case kBatch:
		dst = append(dst, `{"answers":[`...)
		if dst, err = o.appendRows(dst, len(r.js), func(i int) int64 { return r.js[i] }); err != nil {
			return nil, err
		}
		return append(dst, "]}\n"...), nil
	case kBatchWire:
		start := len(dst)
		dst = wire.AppendHeader(dst, wire.Header{Arity: uint32(len(o.row)), Rows: uint64(len(r.js))})
		for _, j := range r.js {
			if err := o.h.AccessInto(j, o.row); err != nil {
				return nil, err
			}
			for _, v := range o.row {
				dst = wire.AppendCell(dst, o.dict.String(v))
			}
		}
		return wire.Finish(dst, start), nil
	case kPage:
		dst = append(dst, `{"answers":[`...)
		k := pageLen(o.count, r.j, r.n)
		if dst, err = o.appendRows(dst, int(k), func(i int) int64 { return r.j + int64(i) }); err != nil {
			return nil, err
		}
		dst = append(dst, `],"offset":`...)
		dst = strconv.AppendInt(dst, r.j, 10)
		return append(dst, "}\n"...), nil
	case kSample:
		ts, err := o.smp.SampleN(r.n, rand.New(rand.NewSource(r.j)))
		if err != nil {
			return nil, err
		}
		dst = append(dst, `{"answers":[`...)
		dst = o.appendTuples(dst, ts)
		return append(dst, "],\"with_replacement\":false}\n"...), nil
	case kEnumNext:
		if !r.first {
			return nil, fmt.Errorf("bench: no fixed expectation for a mid-stream cursor draw")
		}
		p, err := o.h.Permute(rand.New(rand.NewSource(r.seed)))
		if err != nil {
			return nil, err
		}
		ts := p.NextN(r.n)
		dst = append(dst, `{"answers":[`...)
		dst = o.appendTuples(dst, ts)
		dst = append(dst, `],"done":`...)
		dst = strconv.AppendBool(dst, int64(len(ts)) < r.n)
		return append(dst, "}\n"...), nil
	case kContains:
		t, ok := o.lookup(r.cells)
		if ok {
			_, ok = o.inv.InvertedAccess(t)
		}
		dst = append(dst, `{"contains":`...)
		dst = strconv.AppendBool(dst, ok)
		return append(dst, "}\n"...), nil
	case kHealthz:
		return append(dst, "{\"ok\":true}\n"...), nil
	}
	return nil, fmt.Errorf("bench: static oracle has no expectation for %s", r.kind)
}

// internCells maps rendered cells to values, interning the ones the
// dictionary has not seen (an update's fresh key).
func internCells(dict *renum.Dict, cells []string) renum.Tuple {
	t := make(renum.Tuple, len(cells))
	for i, c := range cells {
		t[i] = dict.Intern(c)
	}
	return t
}

// lookup maps rendered cells back to values; ok is false when a cell was
// never interned (so the tuple cannot be an answer).
func (o *staticOracle) lookup(cells []string) (renum.Tuple, bool) {
	if len(cells) != len(o.row) {
		return nil, false
	}
	t := make(renum.Tuple, len(cells))
	for i, c := range cells {
		v, ok := o.dict.Lookup(c)
		if !ok {
			return nil, false
		}
		t[i] = v
	}
	return t, true
}

func (o *staticOracle) check(r *request, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("%s: status %d: %s", r.kind, status, clip(body))
	}
	if r.kind == kEnumNext && !r.first {
		return o.checkEnumNext(r, body)
	}
	want, err := o.expected(o.buf[:0], r)
	if err != nil {
		return fmt.Errorf("%s: oracle: %w", r.kind, err)
	}
	o.buf = want
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s: reply differs from the in-process oracle:\n got  %s\n want %s", r.kind, clip(body), clip(want))
	}
	return nil
}

type answersReply struct {
	Answers [][]string `json:"answers"`
	Done    bool       `json:"done"`
}

// checkEnumNext validates a mid-stream draw of a random-order cursor, whose
// content depends on every draw before it: each row must be an answer, no
// answer may repeat within the draw, and re-encoding the same answers from
// the in-process index must give back the reply's exact bytes.
func (o *staticOracle) checkEnumNext(r *request, body []byte) error {
	var reply answersReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return fmt.Errorf("enum_next: %v: %s", err, clip(body))
	}
	if got := int64(len(reply.Answers)); got > r.n || (got < r.n) != reply.Done {
		return fmt.Errorf("enum_next: %d rows for n=%d with done=%v", got, r.n, reply.Done)
	}
	seen := make(map[int64]struct{}, len(reply.Answers))
	js := make([]int64, len(reply.Answers))
	for i, cells := range reply.Answers {
		t, ok := o.lookup(cells)
		if ok {
			js[i], ok = o.inv.InvertedAccess(t)
		}
		if !ok {
			return fmt.Errorf("enum_next: row %v is not an answer", cells)
		}
		if _, dup := seen[js[i]]; dup {
			return fmt.Errorf("enum_next: answer %d twice in one draw", js[i])
		}
		seen[js[i]] = struct{}{}
	}
	want := append(o.buf[:0], `{"answers":[`...)
	want, err := o.appendRows(want, len(js), func(i int) int64 { return js[i] })
	if err != nil {
		return err
	}
	want = append(want, `],"done":`...)
	want = strconv.AppendBool(want, reply.Done)
	want = append(want, "}\n"...)
	o.buf = want
	if !bytes.Equal(body, want) {
		return fmt.Errorf("enum_next: reply is not the canonical encoding of its answers: %s", clip(body))
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}

// dynamicOracle checks replies of the updatable workload, where positions
// shift under concurrent writers and no reply has fixed bytes. The base
// relations never lose a tuple (deletes only remove what the run inserted),
// so an answer (a,b,c) is right exactly when (b,c) is a base s tuple and
// (a,b) is a base r tuple or an insert some client has sent.
type dynamicOracle struct {
	base     *staticOracle
	r, s     *renum.Relation
	inserted *sync.Map // a -> b for every insert ever sent
}

func newDynamicOracle(db *renum.Database, h *renum.Handle, inserted *sync.Map) (*dynamicOracle, error) {
	base, err := newStaticOracle(db, h)
	if err != nil {
		return nil, err
	}
	r, err := db.Relation("r")
	if err != nil {
		return nil, err
	}
	s, err := db.Relation("s")
	if err != nil {
		return nil, err
	}
	return &dynamicOracle{base: base, r: r, s: s, inserted: inserted}, nil
}

func (o *dynamicOracle) fork() *dynamicOracle {
	c := *o
	c.base = o.base.fork()
	return &c
}

func (o *dynamicOracle) isAnswer(cells []string) bool {
	if len(cells) != 3 {
		return false
	}
	b, okB := o.base.dict.Lookup(cells[1])
	c, okC := o.base.dict.Lookup(cells[2])
	if !okB || !okC || !o.s.Contains(renum.Tuple{b, c}) {
		return false
	}
	if a, ok := o.base.dict.Lookup(cells[0]); ok && o.r.Contains(renum.Tuple{a, b}) {
		return true
	}
	sent, ok := o.inserted.Load(cells[0])
	return ok && sent.(string) == cells[1]
}

func (o *dynamicOracle) check(r *request, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("%s: status %d: %s", r.kind, status, clip(body))
	}
	switch r.kind {
	case kAccess:
		var reply struct {
			Answer []string `json:"answer"`
			J      int64    `json:"j"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return fmt.Errorf("access: %v: %s", err, clip(body))
		}
		if reply.J != r.j || !o.isAnswer(reply.Answer) {
			return fmt.Errorf("access j=%d: %s is not an answer", r.j, clip(body))
		}
	case kSample:
		var reply answersReply
		if err := json.Unmarshal(body, &reply); err != nil {
			return fmt.Errorf("sample: %v: %s", err, clip(body))
		}
		if int64(len(reply.Answers)) != r.n {
			return fmt.Errorf("sample: %d rows for k=%d", len(reply.Answers), r.n)
		}
		for _, cells := range reply.Answers {
			if !o.isAnswer(cells) {
				return fmt.Errorf("sample: row %v is not an answer", cells)
			}
		}
	case kContains:
		// Generated from base answers, which no update removes.
		if !bytes.Equal(body, []byte("{\"contains\":true}\n")) {
			return fmt.Errorf("contains %v: %s", r.cells, clip(body))
		}
	case kUpdate:
		var reply struct {
			Changed bool  `json:"changed"`
			Count   int64 `json:"count"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return fmt.Errorf("update: %v: %s", err, clip(body))
		}
		// Inserts are fresh and deletes target a tuple this connection
		// inserted, so every update changes the relation.
		if !reply.Changed || reply.Count < o.base.count {
			return fmt.Errorf("update %s %v: %s", r.op, r.cells, clip(body))
		}
	default:
		return fmt.Errorf("bench: dynamic oracle has no expectation for %s", r.kind)
	}
	return nil
}
