package server

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"strings"

	"repro"
	"repro/internal/wal"
)

// This file is what renumd's daemon supplies to its front: a Registry —
// every {query} an entry probed in this process (local) — and the admin
// routes that change what the registry serves. The front (server.go) does
// the rest, for the router as much as for the daemon.

// daemon is the Registry-backed half of a daemon's Server.
type daemon struct {
	reg         *Registry
	snapshotDir string
}

// New wires a server around reg. Call Close when done to stop the cursor
// janitor.
//
// The server's /metrics serves the registry's own instruments — per-query
// probe histograms, build (the boot build included), plan-search, WAL,
// compaction and generation series — beside the front's request families.
// The server starts ready; operators sequence readiness explicitly with
// SetReady around WAL replay and drain.
func New(reg *Registry, cfg Config) *Server {
	d := &daemon{reg: reg, snapshotDir: cfg.SnapshotDir}
	list := func() ([]string, uint64, error) {
		_, gen := reg.Snapshot()
		return reg.Names(), gen, nil
	}
	ready := func() (bool, uint64) {
		_, gen := reg.Snapshot()
		return reg.EntryCount() > 0, gen
	}
	s := newServer(NewCore[renum.Tuple](cfg.CursorTTL), reg.m.reg, d.lookup, list, ready, cfg)
	if !cfg.AdminDisabled {
		s.route("POST /admin/load", "admin_load", d.handleAdminLoad)
		s.route("POST /admin/register", "admin_register", d.handleAdminRegister)
		s.route("POST /admin/rebuild", "admin_rebuild", d.handleAdminRebuild)
		s.route("POST /admin/save", "admin_save", d.handleAdminSave)
		s.route("POST /admin/compact", "admin_compact", d.handleAdminCompact)
	}
	return s
}

// lookup resolves {query} against the current snapshot into the request's
// scratch, so resolving allocates nothing.
func (d *daemon) lookup(name []byte, enc *enc, tr *traceRec) (Source[renum.Tuple], error) {
	e, db, ok := d.reg.lookupViewBytes(name)
	if !ok {
		return nil, NoQuery(string(name), d.reg.Names())
	}
	enc.src = local{e: e, db: db, reg: d.reg, enc: enc, tr: tr}
	return &enc.src, nil
}

// ------------------------------------------------------------ local source

// local is the daemon's Source: one entry probed in this process. Every
// probe dispatches through the entry's renum.Handle and discovers optional
// facilities via capabilities, so a probe the backend cannot serve fails
// with renum.ErrUnsupported — there is no backend type switch here.
//
// e and db come from ONE atomic snapshot load: resolving the entry and the
// dictionary with separate loads is a race — a concurrent /admin rebuild can
// publish a new generation between them, pairing an old entry with a new
// database — so a request resolves them once and never goes back to the
// registry. enc is the request's pooled scratch and tr its trace (nil when
// untraced); the cursor draw functions capture neither.
type local struct {
	e   *Entry
	db  *renum.Database
	reg *Registry
	enc *enc
	tr  *traceRec
}

func (l *local) Name() string                { return l.e.Name }
func (l *local) Kind() string                { return l.e.Kind() }
func (l *local) Has(c renum.Capability) bool { return l.e.H.Has(c) }
func (l *local) Count() int64                { return l.e.Count() }
func (l *local) Arity() int                  { return len(l.e.Head()) }
func (l *local) Dict() *renum.Dict           { return l.db.Dict() }

func (l *local) Meta() Meta {
	return Meta{Capabilities: l.e.H.Capabilities(), Count: l.e.Count(), Head: l.e.Head(), Kind: l.e.Kind(), Name: l.e.Name, Query: l.e.Text}
}

// Probe picks the op's per-query histogram and names the span: batch and
// page interleave probe and encode, so theirs is "build".
func (l *local) Probe(op Op) ProbeClock {
	qm := l.e.qm
	switch op {
	case OpCount:
		return startProbe(qm.count, l.tr, "probe")
	case OpAccess:
		return startProbe(qm.access, l.tr, "probe")
	case OpBatch:
		return startProbe(qm.batch, l.tr, "build")
	case OpPage:
		return startProbe(qm.page, l.tr, "build")
	case OpSample:
		return startProbe(qm.sample, l.tr, "probe")
	case OpEnumNext:
		return startProbe(qm.cursor, l.tr, "probe")
	}
	return ProbeClock{}
}

func (l *local) Access(_ context.Context, j int64) (renum.Tuple, error) {
	// Probe into the pooled scratch row — no []Tuple, no per-request answer
	// allocation.
	t := l.enc.rowFor(l.Arity())
	return t, l.e.H.AccessInto(j, t)
}

// streamBatchThreshold: a batch or page at or below this many positions is
// one AccessBatchInto into the pooled scratch rows — the library's own
// AccessBatch is serial below its chunk threshold anyway, so no parallelism
// is lost, the probes still descend the index as a group, and the
// per-request []Tuple materialization is gone. Larger ones keep
// AccessBatchContext's parallel fan-out.
const streamBatchThreshold = 256

func (l *local) Batch(ctx context.Context, js []int64) ([]renum.Tuple, error) {
	// An out-of-range position takes the batch-probe path so the error is
	// the probe's own.
	if len(js) > streamBatchThreshold || !jsInRange(js, l.e.Count()) {
		return l.e.H.AccessBatchContext(ctx, js)
	}
	// One streamed batch is one chunk: honor cancellation at its boundary,
	// exactly like AccessBatchContext does between chunks.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows := l.enc.rowsFor(len(js), l.Arity())
	return rows, l.e.H.AccessBatchInto(js, rows)
}

// jsInRange reports whether every position can be probed right now.
func jsInRange(js []int64, n int64) bool {
	for _, j := range js {
		if j < 0 || j >= n {
			return false
		}
	}
	return true
}

func (l *local) Page(ctx context.Context, offset, k int64) ([]renum.Tuple, error) {
	if k > streamBatchThreshold {
		// Large pages keep Handle.Page's parallel fan-out (and its context
		// propagation between probe chunks).
		return l.e.H.PageContext(ctx, offset, k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	js := l.enc.jsFor()
	for j := offset; j < offset+k; j++ {
		js = append(js, j)
	}
	l.enc.js = js // keep what append grew
	rows := l.enc.rowsFor(len(js), l.Arity())
	return rows, l.e.H.AccessBatchInto(js, rows)
}

func (l *local) Pager() func(context.Context, int64, int64) ([]renum.Tuple, error) {
	return l.e.H.PageContext
}

// Sample draws k answers: distinct for cq/ucq, with replacement for dynamic.
func (l *local) Sample(_ context.Context, k int64, rng *rand.Rand) ([]renum.Tuple, bool, error) {
	smp, err := l.e.H.Sampler()
	if err != nil {
		return nil, false, err
	}
	ts, err := smp.SampleN(k, rng)
	return ts, !smp.Distinct(), err
}

// Permute's draws are atomic: the permutation consumes its shuffle positions
// up front, so aborting mid-batch would silently lose those answers for
// every later request — violating each-answer-exactly-once. Cancellation is
// honored *between* draws (bounded by maxCursorDraw per draw), never inside
// one.
func (l *local) Permute(rng *rand.Rand) (func(context.Context, int64) ([]renum.Tuple, error), error) {
	p, err := l.e.H.Permute(rng)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, k int64) ([]renum.Tuple, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return p.NextN(k), nil
	}, nil
}

// Contains and Inverted intern nothing: a value absent from the dictionary
// cannot be part of any answer, so it short-circuits to "not an answer"
// without growing the dictionary on attacker-chosen input.
func (l *local) Contains(_ context.Context, cells []string) (bool, error) {
	t, known := lookupCells(l.db.Dict(), cells)
	if !known {
		return false, nil
	}
	c, err := l.e.H.Container()
	if err != nil {
		return false, err
	}
	return c.Contains(t), nil
}

func (l *local) Inverted(_ context.Context, cells []string) (int64, bool, error) {
	t, known := lookupCells(l.db.Dict(), cells)
	if !known {
		return 0, false, nil
	}
	inv, err := l.e.H.Inverter()
	if err != nil {
		return 0, false, err
	}
	j, found := inv.InvertedAccess(t)
	return j, found, nil
}

// Update goes through Registry.ApplyUpdate, which validates the target
// relation and arity before interning, logging, or applying anything — an
// insert aimed at a relation the query never joins must not grow the
// append-only dictionary. Under its update mutex it re-resolves the entry and
// dictionary from one snapshot load, so a compaction or rebuild publishing
// between this request's lookup and the apply cannot strand the update in a
// superseded handle or split entry and dictionary across generations. When a
// WAL is attached, the record is durable before the index changes and the
// response is the acknowledgment.
func (l *local) Update(_ context.Context, insert bool, relation string, tuple []string) (bool, error) {
	op := wal.OpDelete
	if insert {
		op = wal.OpInsert
	}
	changed, err := l.reg.ApplyUpdate(l.e, l.db, op, relation, tuple)
	if err != nil && !errors.Is(err, errWALAppend) && !renum.IsUnsupported(err) {
		return false, HTTPErrorf(http.StatusBadRequest, "%v", err)
	}
	return changed, err // a WAL failure is a 500, a capability miss a 501
}

// ------------------------------------------------------------------ admin

func (d *daemon) handleAdminLoad(w http.ResponseWriter, r *http.Request) error {
	var body struct {
		Name string `json:"name"`
		CSV  string `json:"csv"`
	}
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	if body.Name == "" {
		return HTTPErrorf(http.StatusBadRequest, "name is required")
	}
	if err := d.reg.LoadTable(body.Name, strings.NewReader(body.CSV)); err != nil {
		return HTTPErrorf(http.StatusBadRequest, "%v", err)
	}
	return writeJSON(w, map[string]any{"loaded": body.Name})
}

func (d *daemon) handleAdminRegister(w http.ResponseWriter, r *http.Request) error {
	var body struct {
		Program string `json:"program"`
		Dynamic bool   `json:"dynamic"`
	}
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	names, err := d.reg.Register(body.Program, body.Dynamic)
	if err != nil {
		return HTTPErrorf(http.StatusBadRequest, "%v", err)
	}
	return writeJSON(w, map[string]any{"registered": names})
}

func (d *daemon) handleAdminSave(w http.ResponseWriter, r *http.Request) error {
	if d.snapshotDir == "" {
		return HTTPErrorf(http.StatusBadRequest, "snapshot saving is not configured (start the daemon with -snapshot-dir)")
	}
	path, gen, skipped, err := d.reg.SaveSnapshot(d.snapshotDir)
	if err != nil {
		return err
	}
	if skipped == nil {
		skipped = []string{}
	}
	return writeJSON(w, map[string]any{"saved": path, "generation": gen, "skipped": skipped})
}

// handleAdminCompact folds the WAL into a fresh snapshot generation (see
// Registry.Compact). It needs both a WAL (-wal-dir) and a snapshot dir.
func (d *daemon) handleAdminCompact(w http.ResponseWriter, r *http.Request) error {
	if d.snapshotDir == "" {
		return HTTPErrorf(http.StatusBadRequest, "snapshot saving is not configured (start the daemon with -snapshot-dir)")
	}
	gen, folded, err := d.reg.Compact(d.snapshotDir)
	if err != nil {
		if errors.Is(err, errNoWAL) {
			return HTTPErrorf(http.StatusBadRequest, "%v", err)
		}
		// Snapshot-write, rotation, or rebuild-aside failures are server
		// faults, not client mistakes: 500 via the route error mapper.
		return err
	}
	return writeJSON(w, map[string]any{"generation": gen, "folded": folded})
}

func (d *daemon) handleAdminRebuild(w http.ResponseWriter, r *http.Request) error {
	if err := d.reg.Rebuild(); err != nil {
		return HTTPErrorf(http.StatusBadRequest, "%v", err)
	}
	_, gen := d.reg.Snapshot()
	return writeJSON(w, map[string]any{"rebuilt": true, "generation": gen})
}
