package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// This file is the endpoint core: the HTTP response contract of the probe
// API — parameter names and defaults, limits, validation order and error
// strings, Accept negotiation, key order and wire framing, cursor TTL and
// busy semantics — written once. Transports only parse and write: the
// net/http mux and the fast connection loop each hand a request's raw query
// string to parseRequest (the mux alone also reads the JSON bodies of the
// POST forms), run Core.do against a Source, and send the bytes it returns.
// What differs between the daemon and the router is only where rows come
// from, and that is the Source: the daemon's *local probes an index in this
// process, the router's source scatters to shard daemons.

// Op names one operation of the probe API.
type Op uint8

const (
	opNone Op = iota
	opHealthz
	opReadyz
	OpCount
	OpAccess
	OpBatch
	OpPage
	OpSample
	OpEnumNext
	OpEnumStart
	OpEnumClose
	OpContains
	OpInverted
	OpUpdate
	OpMeta
	numOps
)

// opNames are the endpoint label values of the per-endpoint instruments;
// the mux routes and the fast loop index the same table, so /metrics
// aggregates both transports under one series per endpoint.
var opNames = [numOps]string{"", "healthz", "readyz", "count", "access", "batch", "page", "sample",
	"enum_next", "enum_start", "enum_close", "contains", "inverted", "update", "meta"}

// request is one parsed request: every parameter any op reads, defaults
// already applied by parseRequest.
type request struct {
	op       Op
	j        int64    // access
	js       []int64  // batch (the GET form aliases enc.js)
	offset   int64    // page
	limit    int64    // page
	k        int64    // sample
	seed     int64    // sample, enum/start?order=random
	cursor   []byte   // enum/next, enum close
	n        int64    // enum/next
	order    []byte   // enum/start
	tuple    []string // contains, inverted, update
	insert   bool     // update: insert (else delete)
	relation string   // update
	wantWire bool
}

// parseRequest fills req for req.op from the raw query string. Parameter
// names, defaults and the order parse errors surface in are decided here and
// nowhere else. req's byte fields alias raw or enc's scratch, so what keeps
// one past the request converts it to a string (which, for a cursor id looked
// up in a map, stays off the heap).
func parseRequest(req *request, raw []byte, enc *enc) (err error) {
	enc.query = enc.query[:0]
	q := query{raw: raw, scratch: &enc.query}
	switch req.op {
	case OpAccess:
		req.j, err = q.int("j", -1)
	case OpBatch:
		req.js, err = q.js(enc.jsFor())
		enc.js = req.js[:0] // keep grown scratch pooled
	case OpPage:
		if req.offset, err = q.int("offset", 0); err == nil {
			req.limit, err = q.int("limit", 10)
		}
	case OpSample:
		if req.k, err = q.int("k", 1); err == nil {
			req.seed, err = seedParam(q)
		}
	case OpEnumNext:
		req.cursor = q.get("cursor")
		req.n, err = q.int("n", 1)
	case OpEnumStart:
		if req.order = q.get("order"); string(req.order) == "random" {
			req.seed, err = seedParam(q)
		}
	case OpEnumClose:
		req.cursor = q.get("cursor")
	}
	return err
}

// seedParam reads ?seed=: deterministic when the client passes one,
// time-seeded otherwise.
func seedParam(q query) (int64, error) {
	return q.int("seed", time.Now().UnixNano())
}

func rngFor(req *request) *rand.Rand { return rand.New(rand.NewSource(req.seed)) }

// ProbeClock times one probe section for the per-query histograms and the
// active trace. A value type with no-op semantics when neither consumer is
// present (the zero value): the common untraced, unobserved case costs two
// nil checks.
type ProbeClock struct {
	qh   *obs.Histogram
	tr   *traceRec
	name string
	t0   time.Time
}

func startProbe(qh *obs.Histogram, tr *traceRec, name string) ProbeClock {
	pc := ProbeClock{qh: qh, tr: tr, name: name}
	if qh != nil || tr != nil {
		pc.t0 = time.Now()
	}
	return pc
}

// Done records the section.
func (pc ProbeClock) Done() {
	if pc.qh == nil && pc.tr == nil {
		return
	}
	d := time.Since(pc.t0)
	if pc.qh != nil {
		pc.qh.Record(d)
	}
	pc.tr.span(pc.name, pc.t0, d)
}

// Source is one served query as the core sees it: where an op's rows come
// from. A Source is resolved per request and not retained; the draw
// functions Pager and Permute return are what a cursor keeps, and they must
// stay valid — and keep answering from the same snapshot — after the
// request that started the cursor is gone.
type Source[R Row] interface {
	Name() string
	Kind() string
	Has(c renum.Capability) bool
	Count() int64
	Arity() int
	// Dict renders R's cells; nil when rows are already strings.
	Dict() *renum.Dict
	// Probe starts the clock for op's probe section.
	Probe(op Op) ProbeClock

	// Access returns answer j; the core has checked 0 <= j < Count().
	Access(ctx context.Context, j int64) (R, error)
	// Batch returns the answers at js in request order. One bad position
	// fails the whole batch with renum.ErrOutOfBounds.
	Batch(ctx context.Context, js []int64) ([]R, error)
	// Page returns the k answers from offset on; the core has clamped the
	// window to [0, Count()).
	Page(ctx context.Context, offset, k int64) ([]R, error)
	Sample(ctx context.Context, k int64, rng *rand.Rand) (rows []R, withReplacement bool, err error)
	Contains(ctx context.Context, cells []string) (bool, error)
	Inverted(ctx context.Context, cells []string) (j int64, found bool, err error)
	// Update inserts or deletes one base tuple; the core has checked
	// CapUpdate.
	Update(ctx context.Context, insert bool, relation string, tuple []string) (changed bool, err error)
	// Meta is the GET /v1/{query} body.
	Meta() Meta

	// Pager is Page as a function a cursor can keep.
	Pager() func(ctx context.Context, offset, k int64) ([]R, error)
	// Permute starts one seeded random-order enumeration and returns its
	// draw function: up to k further answers, fewer only at the end.
	Permute(rng *rand.Rand) (func(ctx context.Context, k int64) ([]R, error), error)
}

// Meta describes one served query, the GET /v1/{query} body. Its fields are
// declared in sorted key order, the order encoding/json gives a map's keys.
type Meta struct {
	Capabilities []renum.Capability `json:"capabilities"`
	Count        int64              `json:"count"`
	Head         []string           `json:"head"`
	Kind         string             `json:"kind"`
	Name         string             `json:"name"`
	Query        string             `json:"query"`
}

const (
	// maxBatch bounds the positions of one /batch, /page or /sample.
	maxBatch = 1 << 16
	// maxCursorDraw bounds n of one /enum/next call.
	maxCursorDraw = 1 << 16
)

// Core serves the probe ops over rows of type R and owns the cursor
// sessions started through it.
type Core[R Row] struct {
	cursors *cursorStore[R]
}

// NewCore returns a core whose cursors are evicted after cursorTTL idle
// (0 = 5 minutes), with its cursor janitor running; Close stops it.
func NewCore[R Row](cursorTTL time.Duration) *Core[R] {
	return &Core[R]{cursors: newCursorStore[R](cursorTTL, 0)}
}

// Close stops the cursor janitor.
func (c *Core[R]) Close() { c.cursors.Shutdown() }

// LiveCursors reports the number of open enumeration sessions.
func (c *Core[R]) LiveCursors() int { return c.cursors.Len() }

// admit rejects an op the source has no capability for before anything of
// the request is parsed: a capability miss is 501 whatever the parameters or
// the body say.
func admit[R Row](op Op, src Source[R]) error {
	switch {
	case op == OpEnumStart && !src.Has(renum.CapEnumerate):
		// Cursors need an enumeration order that is stable across requests;
		// updates shift positions, so dynamic entries have none.
		return fmt.Errorf("enumeration cursors: %w (kind %s has no stable order)", renum.ErrUnsupported, src.Kind())
	case op == OpContains && !src.Has(renum.CapContains):
		return fmt.Errorf("contains: %w (kind %s)", renum.ErrUnsupported, src.Kind())
	case op == OpInverted && !src.Has(renum.CapInvert):
		return fmt.Errorf("inverted access: %w (kind %s)", renum.ErrUnsupported, src.Kind())
	case op == OpUpdate && !src.Has(renum.CapUpdate):
		// Handle.Updater's words: a router answers like the daemon it fronts.
		return fmt.Errorf("update: %w (kind %s is a static index; open with WithDynamic)", renum.ErrUnsupported, src.Kind())
	}
	return nil
}

// do runs one admitted, parsed op against src and returns the response body
// built in enc's buffer (or a shared immutable body), framed as the binary
// wire message when isWire. A returned error becomes the JSON error response
// through errorStatus.
func (c *Core[R]) do(ctx context.Context, src Source[R], req *request, enc *enc) (body []byte, isWire bool, err error) {
	dict := src.Dict()
	switch req.op {
	case OpCount:
		pc := src.Probe(OpCount)
		n := src.Count()
		pc.Done()
		return appendCountBody(enc.buf, n), false, nil

	case OpAccess:
		// Input validation is the core's: the 400 body is the same whichever
		// Source answers, local index or router scatter.
		if n := src.Count(); req.j < 0 || req.j >= n {
			return nil, false, HTTPErrorf(http.StatusBadRequest, "j=%d out of range [0, %d)", req.j, n)
		}
		pc := src.Probe(OpAccess)
		row, err := src.Access(ctx, req.j)
		pc.Done()
		if err != nil {
			return nil, false, err
		}
		return appendAccessBody(enc.buf, dict, req.j, row), false, nil

	case OpBatch:
		if len(req.js) > maxBatch {
			return nil, false, HTTPErrorf(http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.js), maxBatch)
		}
		pc := src.Probe(OpBatch)
		defer pc.Done() // the span covers probe + encode
		rows, err := src.Batch(ctx, req.js)
		if err != nil {
			return nil, false, err
		}
		if req.wantWire {
			return appendWireRows(enc.buf, dict, rows, src.Arity(), 0, 0), true, nil
		}
		return appendAnswersBody(enc.buf, dict, rows), false, nil

	case OpPage:
		if req.limit > maxBatch {
			return nil, false, HTTPErrorf(http.StatusBadRequest, "limit %d exceeds %d", req.limit, maxBatch)
		}
		if req.offset < 0 || req.limit < 0 {
			return nil, false, HTTPErrorf(http.StatusBadRequest, "offset and limit must be non-negative")
		}
		// Tail clamping mirrors Handle.Page: offset past the end is an empty
		// page, an overshooting limit is shortened, never an error.
		k := max(0, min(req.limit, src.Count()-req.offset))
		pc := src.Probe(OpPage)
		defer pc.Done()
		rows, err := src.Page(ctx, req.offset, k)
		if err != nil {
			return nil, false, err
		}
		if req.wantWire {
			return appendWireRows(enc.buf, dict, rows, src.Arity(), 0, uint64(req.offset)), true, nil
		}
		return closeAnswersOffsetBody(appendAnswersRows(enc.buf, dict, rows), req.offset), false, nil

	case OpSample:
		if req.k < 0 || req.k > maxBatch {
			return nil, false, HTTPErrorf(http.StatusBadRequest, "k=%d out of range [0, %d]", req.k, maxBatch)
		}
		pc := src.Probe(OpSample)
		rows, withReplacement, err := src.Sample(ctx, req.k, rngFor(req))
		pc.Done()
		if err != nil {
			return nil, false, err
		}
		return closeAnswersWithReplacementBody(appendAnswersRows(enc.buf, dict, rows), withReplacement), false, nil

	case OpEnumStart:
		nextN, err := c.cursorDraw(src, req)
		if err != nil {
			return nil, false, err
		}
		id := c.cursors.Start(src.Name(), nextN)
		return appendCursorBody(enc.buf, id, c.cursors.ttl.Milliseconds()), false, nil

	case OpEnumNext:
		if req.n <= 0 || req.n > maxCursorDraw {
			return nil, false, HTTPErrorf(http.StatusBadRequest, "n=%d out of range [1, %d]", req.n, maxCursorDraw)
		}
		pc := src.Probe(OpEnumNext)
		rows, done, err := c.cursors.Next(ctx, string(req.cursor), src.Name(), req.n)
		pc.Done()
		if err != nil {
			return nil, false, err
		}
		if req.wantWire {
			var flags uint32
			if done {
				flags = wire.FlagDone
			}
			return appendWireRows(enc.buf, dict, rows, src.Arity(), flags, 0), true, nil
		}
		return closeAnswersDoneBody(appendAnswersRows(enc.buf, dict, rows), done), false, nil

	case OpEnumClose:
		if !c.cursors.Close(string(req.cursor), src.Name()) {
			return nil, false, ErrNoCursor
		}
		return closedBody, false, nil

	case OpContains, OpInverted:
		if len(req.tuple) != src.Arity() {
			return nil, false, HTTPErrorf(http.StatusBadRequest, "tuple has %d values, query arity is %d", len(req.tuple), src.Arity())
		}
		if req.op == OpContains {
			contains, err := src.Contains(ctx, req.tuple)
			return appendContainsBody(enc.buf, contains), false, err
		}
		j, found, err := src.Inverted(ctx, req.tuple)
		return appendInvertedBody(enc.buf, j, found), false, err

	case OpUpdate:
		changed, err := src.Update(ctx, req.insert, req.relation, req.tuple)
		if err != nil {
			return nil, false, err
		}
		return appendChangedBody(enc.buf, changed, src.Count()), false, nil

	case OpMeta:
		b := bytes.NewBuffer(enc.buf)
		err := json.NewEncoder(b).Encode(src.Meta())
		return b.Bytes(), false, err
	}
	return nil, false, HTTPErrorf(http.StatusInternalServerError, "unreachable op %d", req.op)
}

// cursorDraw builds the draw function of a new enumeration session.
func (c *Core[R]) cursorDraw(src Source[R], req *request) (func(context.Context, int64) ([]R, error), error) {
	switch string(req.order) {
	case "", "enum":
		// Deterministic order = access order: each draw is the next window of
		// sequential positions. Probe errors — including a cancelled draw —
		// surface to the client and leave the cursor alive rather than
		// masquerading as exhaustion: the position only advances on success,
		// so the client retries the same window.
		page, n, pos := src.Pager(), src.Count(), int64(0)
		return func(ctx context.Context, k int64) ([]R, error) {
			if pos >= n {
				return nil, nil
			}
			rows, err := page(ctx, pos, min(k, n-pos))
			if err != nil {
				return nil, err
			}
			pos += int64(len(rows))
			return rows, nil
		}, nil
	case "random":
		return src.Permute(rngFor(req))
	}
	return nil, HTTPErrorf(http.StatusBadRequest, "order must be enum or random, got %q", req.order)
}

// ------------------------------------------------------ net/http transport

// parseHTTP fills req from an *http.Request: the query string, or the JSON
// body for the POST forms.
func parseHTTP(req *request, r *http.Request, enc *enc) error {
	req.wantWire = wantsWire(r)
	switch req.op {
	case OpBatch:
		if r.Method == http.MethodPost {
			var body struct {
				Js []int64 `json:"js"`
			}
			err := decodeBody(r, &body)
			req.js = body.Js
			return err
		}
	case OpContains, OpInverted:
		var body struct {
			Tuple []string `json:"tuple"`
		}
		err := decodeBody(r, &body)
		req.tuple = body.Tuple
		return err
	case OpUpdate:
		var body struct {
			Op       string   `json:"op"`
			Relation string   `json:"relation"`
			Tuple    []string `json:"tuple"`
		}
		if err := decodeBody(r, &body); err != nil {
			return err
		}
		if body.Op != "insert" && body.Op != "delete" {
			return HTTPErrorf(http.StatusBadRequest, "op must be insert or delete, got %q", body.Op)
		}
		req.insert, req.relation, req.tuple = body.Op == "insert", body.Relation, body.Tuple
		return nil
	}
	return parseRequest(req, []byte(r.URL.RawQuery), enc)
}
