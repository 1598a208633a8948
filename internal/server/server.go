// Package server puts the enumeration indexes behind a network socket: a
// long-lived daemon (cmd/renumd) owning a registry of immutable indexes,
// serving the whole probe surface over HTTP/JSON to clients that do not
// link the Go library.
//
// # API
//
// Probe endpoints (all JSON; {query} is a registered head predicate):
//
//	GET  /v1                          → {"queries": [...names]}
//	GET  /v1/{query}                  → metadata: kind, count, head, rule text,
//	                                    capabilities (the renum.Handle set)
//	GET  /v1/{query}/count            → {"count": n}
//	GET  /v1/{query}/access?j=N       → {"j": N, "answer": [...strings]}
//	GET  /v1/{query}/batch?js=0,5,3   → {"answers": [[...], ...]}   (also POST {"js":[...]})
//	GET  /v1/{query}/page?offset=&limit= → {"offset": o, "answers": [...]}
//	GET  /v1/{query}/sample?k=&seed=  → {"answers": [...]} (distinct for cq/ucq,
//	                                    with replacement for dynamic)
//	POST /v1/{query}/contains  {"tuple": [...]}  → {"contains": bool}
//	POST /v1/{query}/inverted  {"tuple": [...]}  → {"j": N, "found": bool}
//	POST /v1/{query}/update    {"op": "insert"|"delete", "relation": r, "tuple": [...]}
//	                                  (dynamic entries only)
//
// Cursor sessions (stateful enumeration; single-consumer, TTL-evicted):
//
//	POST   /v1/{query}/enum/start?order=enum|random&seed=S → {"cursor": id, "ttl_ms": t}
//	GET    /v1/{query}/enum/next?cursor=&n=               → {"answers": [...], "done": bool}
//	DELETE /v1/{query}/enum?cursor=                        → {"closed": true}
//
// Operations:
//
//	GET  /healthz                      → {"ok": true}
//	GET  /metrics                      → per-endpoint counts + latency quantiles,
//	                                     live cursors, generation
//	POST /admin/load     {"name": r, "csv": "a,b\n1,2\n"}  → load/replace a table
//	POST /admin/register {"program": "...", "dynamic": bool} → compile + publish queries
//	POST /admin/rebuild                → recompile every entry, swap the snapshot
//	POST /admin/save                   → persist the current generation to the
//	                                     snapshot dir (dynamic entries included;
//	                                     with a WAL attached, the segment rotates
//	                                     empty — its records are now folded in)
//	POST /admin/compact                → rebuild updatable entries aside, save
//	                                     generation+1, rotate the WAL, publish
//
// # Durability
//
// With a WAL attached (renumd -wal-dir), every acknowledged /update is
// appended — fsynced under the default policy — before it is applied, so a
// SIGKILL loses no acked update: boot replays the newest snapshot
// generation's segment on top of that snapshot. Compaction (periodic via
// -compact-every, or on demand via /admin/compact) folds the segment into
// a new snapshot generation without blocking probes. Admin mutations
// (load/register/rebuild) are NOT logged; they are durable only through an
// explicit /admin/save or /admin/compact.
//
// # Layout
//
// Every probe op — count, access, batch, page, sample, contains, inverted
// and the cursor ops — is implemented once, in the endpoint core (core.go):
// a parsed request and a row Source in, response bytes out. The fast
// connection loop (fastloop.go) and the net/http mux (this file) are
// transports that parse and write; the daemon's Source is an Entry probed in
// this process (local, below), the router's (internal/server/router) fetches
// rows from shard daemons and runs the same core. Metadata, updates and the
// admin surface are plain mux handlers.
//
// # Dispatch
//
// Every entry is served through one *renum.Handle: the local Source uses the
// shared probe surface and discovers optional facilities via capabilities
// (Inverter, Updater, Sampler, CapEnumerate). A probe the backend cannot
// serve fails with renum.ErrUnsupported, which maps uniformly to 501 — there is no
// backend type switch anywhere in this package, so new backend kinds are
// served without handler changes. Request contexts propagate into batched
// probes (/batch, /page, enum-order cursor draws): a disconnected client
// stops burning cores at the next chunk boundary. Random-order cursor draws
// are atomic — cancellation is only honored between draws, because a
// permutation's positions are consumed up front and aborting mid-draw
// would silently lose answers for subsequent requests.
//
// # Concurrency
//
// Probe handlers are lock-free against the registry: they atomically load
// the current snapshot and use its immutable indexes. Admin writes build a
// new snapshot aside and publish it with one atomic swap; requests that
// started on the old generation finish on it. Cursors capture the snapshot
// they started on and are single-consumer (a concurrent read of the same
// cursor fails fast with 409 rather than queueing).
//
// Every /access is one direct probe into the request's pooled scratch row;
// a client that wants probes amortised asks for them explicitly with /batch.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Config tunes a Server. The probe fan-out is configured on the Registry
// (NewRegistry), which owns entry construction — each entry's Handle carries
// its worker budget.
type Config struct {
	// CursorTTL evicts idle enumeration sessions (0 = 5 minutes).
	CursorTTL time.Duration
	// CursorSweep is the janitor period (0 = TTL/4, min 1s).
	CursorSweep time.Duration
	// MaxBatch bounds the positions of one /batch or /page request (0 = 1<<16).
	MaxBatch int64
	// MaxCursorDraw bounds n of one /enum/next call (0 = 1<<16).
	MaxCursorDraw int64
	// AdminDisabled turns the /admin endpoints off (serve-only daemon).
	AdminDisabled bool
	// SnapshotDir is where /admin/save persists catalog snapshots
	// (gen-<generation>.snap). Empty disables saving with a descriptive 400.
	SnapshotDir string
	// SlowLog emits a structured log line for any request at least this
	// slow (0 disables slow-request logging).
	SlowLog time.Duration
	// Logger receives slow-request lines. Nil means slog.Default().
	Logger *slog.Logger
	// TraceBuffer caps the in-memory ring behind /debug/traces
	// (0 = 256 traced requests).
	TraceBuffer int
}

// Server is the HTTP face of a Registry.
type Server struct {
	reg     *Registry
	cfg     Config
	core    *Core[renum.Tuple]
	metrics *metricsRecorder
	obs     *obs.Registry
	traces  *traceStore
	logger  *slog.Logger
	ready   atomic.Bool
	mux     *http.ServeMux
}

// New wires a server around reg. Call Close when done to stop the cursor
// janitor.
//
// New also installs the registry's observability hooks: per-query probe
// histograms, build/WAL/compaction timings and generation counters all land
// in the server's Prometheus registry (served at /metrics). The server
// starts ready; operators sequence readiness explicitly with SetReady
// around WAL replay and drain.
func New(reg *Registry, cfg Config) *Server {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	obsReg := obs.NewRegistry()
	s := &Server{
		reg: reg,
		cfg: cfg,
		core: NewCore[renum.Tuple](Limits{
			MaxBatch: cfg.MaxBatch, MaxCursorDraw: cfg.MaxCursorDraw,
			CursorTTL: cfg.CursorTTL, CursorSweep: cfg.CursorSweep,
		}),
		metrics: newMetricsRecorder(obsReg),
		obs:     obsReg,
		traces:  newTraceStore(cfg.TraceBuffer),
		logger:  logger,
		mux:     http.NewServeMux(),
	}
	s.ready.Store(true)
	s.registerCollectors()
	reg.SetObserver(newServerObserver(obsReg, reg))
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /readyz", "readyz", s.handleReadyz)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.route("GET /debug/traces", "debug_traces", s.handleDebugTraces)
	s.route("GET /v1", "list", s.handleList)
	s.route("GET /v1/{query}", "meta", s.entry(s.handleMeta))
	s.op("GET /v1/{query}/count", OpCount)
	s.op("GET /v1/{query}/access", OpAccess)
	s.op("GET /v1/{query}/batch", OpBatch)
	s.op("POST /v1/{query}/batch", OpBatch)
	s.op("GET /v1/{query}/page", OpPage)
	s.op("GET /v1/{query}/sample", OpSample)
	s.op("POST /v1/{query}/contains", OpContains)
	s.op("POST /v1/{query}/inverted", OpInverted)
	s.route("POST /v1/{query}/update", "update", s.entry(s.handleUpdate))
	s.op("POST /v1/{query}/enum/start", OpEnumStart)
	s.op("GET /v1/{query}/enum/next", OpEnumNext)
	s.op("DELETE /v1/{query}/enum", OpEnumClose)
	if !cfg.AdminDisabled {
		s.route("POST /admin/load", "admin_load", s.handleAdminLoad)
		s.route("POST /admin/register", "admin_register", s.handleAdminRegister)
		s.route("POST /admin/rebuild", "admin_rebuild", s.handleAdminRebuild)
		s.route("POST /admin/save", "admin_save", s.handleAdminSave)
		s.route("POST /admin/compact", "admin_compact", s.handleAdminCompact)
	}
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetReady flips the /readyz verdict. The daemon sets it false at the top
// of a drain so load balancers stop routing new work before the listener
// goes away, and (already true by default) leaves it true once boot — WAL
// replay included — has finished.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the /readyz verdict: the operator has not started a drain
// AND the registry is serving a published generation with at least one
// entry (a daemon serving nothing is not ready for traffic).
func (s *Server) Ready() bool {
	return s.ready.Load() && s.reg.EntryCount() > 0
}

// Close stops background work (cursor janitor) and marks the server
// unready. In-flight requests are the http.Server's business.
func (s *Server) Close() {
	s.ready.Store(false)
	s.core.Close()
}

// ------------------------------------------------------------------ errors

// httpError carries a status code through the handler plumbing.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func (e *httpError) HTTPStatus() int { return e.status }

// HTTPErrorf returns an error that WriteError renders with the given status.
func HTTPErrorf(status int, format string, args ...any) error {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// NoQuery is the 404 for a {query} nobody serves.
func NoQuery(name string, serving []string) error {
	return HTTPErrorf(http.StatusNotFound, "no query %q (serving: %s)", name, strings.Join(serving, ", "))
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response. There is no stdlib constant for it.
const statusClientClosedRequest = 499

// clientGone reports that err is the request context ending: the *client*
// abandoned the probe mid-flight. Such a request answers 499 (best effort —
// the client is gone) and stays out of the server-error metric, or
// dashboards would read ordinary disconnects as faults.
func clientGone(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// errorStatus maps a handler error to its HTTP status. An error anywhere in
// the chain that knows its own status (an httpError; the router's typed
// shard fault, a 502) decides.
func errorStatus(err error) int {
	var se interface{ HTTPStatus() int }
	switch {
	case errors.As(err, &se):
		return se.HTTPStatus()
	case clientGone(err):
		return statusClientClosedRequest
	case renum.IsUnsupported(err):
		// Capability discovery is uniform: any probe the backend
		// cannot serve (inverted access on a union, updates or
		// cursors on the wrong kind) is 501, never a type switch.
		return http.StatusNotImplemented
	case errors.Is(err, renum.ErrOutOfBounds):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoCursor):
		return http.StatusNotFound
	case errors.Is(err, ErrCursorBusy):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// WriteError renders err as the {"error": msg} response under its status.
func WriteError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(errorStatus(err))
	e := getEnc()
	w.Write(errorBody(e.buf, err.Error()))
	e.release()
}

// ------------------------------------------------------- request bracket

// countingWriter counts response bytes for the per-endpoint bytes_out
// metric; pooled so the wrapper itself costs no allocation per request.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

var cwPool = sync.Pool{New: func() any { return &countingWriter{} }}

// bracket is the instrumentation around one request, identical on both
// transports: the endpoint's counters and latency histogram, the trace
// record a client-supplied X-Request-Id turns on (and only then — untraced
// requests never touch the trace pool), and the slow-request verdict.
type bracket struct {
	ep *endpointMetrics
	t0 time.Time
	tr *traceRec
}

func beginRequest[T string | []byte](s *Server, ep *endpointMetrics, reqID T) bracket {
	b := bracket{ep: ep, t0: time.Now()}
	if len(reqID) > 0 {
		b.tr = beginTrace(s.traces, reqID, ep.name, b.t0)
	}
	return b
}

// end closes the bracket once the response (err's error body included) has
// been written. slow tells the transport to emit its logSlow line.
func (s *Server) end(b bracket, err error, wrote int64) (d time.Duration, status int, slow bool) {
	d = time.Since(b.t0)
	b.ep.observe(d, err != nil && !clientGone(err), wrote)
	status = http.StatusOK
	if err != nil {
		status = errorStatus(err)
	}
	if b.tr != nil {
		b.tr.finish(status, d)
		s.traces.push(b.tr)
	}
	return d, status, s.cfg.SlowLog > 0 && d >= s.cfg.SlowLog
}

// logSlow emits one structured line for a request over the SlowLog
// threshold. Cold by definition — the request already blew its budget.
func (s *Server) logSlow(endpoint, path, query, reqID string, d time.Duration, status int) {
	attrs := []slog.Attr{
		slog.String("endpoint", endpoint),
		slog.String("path", path),
		slog.Int64("duration_us", d.Microseconds()),
		slog.Int("status", status),
	}
	if query != "" {
		attrs = append(attrs, slog.String("query", query))
	}
	if reqID != "" {
		attrs = append(attrs, slog.String("request_id", reqID))
	}
	s.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow request", attrs...)
}

// route installs a mux handler inside the request bracket. The endpoint's
// instruments are resolved here, once, at registration — the per-request
// closure records through pre-registered pointers.
func (s *Server) route(pattern, name string, h func(w http.ResponseWriter, r *http.Request) error) {
	ep := s.metrics.endpoint(name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		cw := cwPool.Get().(*countingWriter)
		cw.ResponseWriter, cw.n = w, 0
		reqID := r.Header.Get("X-Request-Id")
		b := beginRequest(s, ep, reqID)
		if b.tr != nil {
			r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, b.tr))
		}
		err := h(cw, r)
		if err != nil {
			WriteError(cw, err)
		}
		if d, status, slow := s.end(b, err, cw.n); slow {
			s.logSlow(name, r.URL.Path, r.PathValue("query"), reqID, d, status)
		}
		cw.ResponseWriter = nil
		cwPool.Put(cw)
	})
}

// WriteJSON is the reflection-based fallback for cold, registry-shaped
// endpoints (meta, list, metrics, admin). Hot probe responses go through the
// pooled builders in encode.go instead.
func WriteJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

func queryInt64(q url.Values, name string, def int64) (int64, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, HTTPErrorf(http.StatusBadRequest, "%s: %v", name, err)
	}
	return v, nil
}

// appendJSList parses a comma-separated position list into dst (the pooled
// scratch), with strings.Split semantics: segments are space-trimmed, empty
// segments skipped.
func appendJSList(dst []int64, s string) ([]int64, error) {
	for s != "" {
		var part string
		if i := strings.IndexByte(s, ','); i >= 0 {
			part, s = s[:i], s[i+1:]
		} else {
			part, s = s, ""
		}
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		j, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return dst, HTTPErrorf(http.StatusBadRequest, "js: %v", err)
		}
		dst = append(dst, j)
	}
	return dst, nil
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return HTTPErrorf(http.StatusBadRequest, "body: %v", err)
	}
	return nil
}

// ------------------------------------------------------------ local source

// view is everything a handler needs from ONE atomic snapshot load: the
// entry's generation-mates. Resolving the entry and the dictionary with
// separate loads is a race — a concurrent /admin rebuild can publish a new
// generation between them, pairing an old entry with a new database —
// so a request builds the view once and never goes back to the registry.
type view struct {
	e  *Entry
	db *renum.Database
}

// lookup resolves {query} against the current snapshot.
func (s *Server) lookup(r *http.Request) (view, error) {
	name := r.PathValue("query")
	e, db, _, ok := s.reg.LookupView(name)
	if !ok {
		return view{}, NoQuery(name, s.reg.Names())
	}
	if tr := traceFrom(r.Context()); tr != nil {
		tr.query = e.Name
	}
	return view{e: e, db: db}, nil
}

// entry resolves {query} before a cold handler, which receives the entry
// and its same-snapshot view.
func (s *Server) entry(h func(w http.ResponseWriter, r *http.Request, e *Entry, v view) error) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		v, err := s.lookup(r)
		if err != nil {
			return err
		}
		return h(w, r, v.e, v)
	}
}

// op mounts one core op on the mux: resolve the entry, then the core's
// net/http transport over the local source.
func (s *Server) op(pattern string, op Op) {
	s.route(pattern, opNames[op], func(w http.ResponseWriter, r *http.Request) error {
		v, err := s.lookup(r)
		if err != nil {
			return err
		}
		enc := getEnc()
		defer enc.release()
		return s.core.serve(w, r, op, &local{view: v, enc: enc, tr: traceFrom(r.Context())}, enc)
	})
}

// local is the daemon's Source: one entry probed in this process. Every
// probe dispatches through the entry's renum.Handle and discovers optional
// facilities via capabilities, so a probe the backend cannot serve fails
// with renum.ErrUnsupported — there is no backend type switch here. enc is
// the request's pooled scratch and tr its trace (nil when untraced); the
// cursor draw functions capture neither.
type local struct {
	view
	enc *enc
	tr  *traceRec
}

func (l *local) Name() string                { return l.e.Name }
func (l *local) Kind() string                { return l.e.Kind() }
func (l *local) Has(c renum.Capability) bool { return l.e.H.Has(c) }
func (l *local) Count() int64                { return l.e.Count() }
func (l *local) Arity() int                  { return len(l.e.Head()) }
func (l *local) Dict() *renum.Dict           { return l.db.Dict() }

// Probe picks the op's per-query histogram (all nil for observer-less
// registries) and names the span: batch and page interleave probe and encode,
// so theirs is "build".
func (l *local) Probe(op Op) ProbeClock {
	qm := l.e.qm
	if qm == nil {
		qm = &obs.ProbeOps{}
	}
	switch op {
	case OpCount:
		return startProbe(qm.Count, l.tr, "probe")
	case OpAccess:
		return startProbe(qm.Access, l.tr, "probe")
	case OpBatch:
		return startProbe(qm.Batch, l.tr, "build")
	case OpPage:
		return startProbe(qm.Page, l.tr, "build")
	case OpSample:
		return startProbe(qm.Sample, l.tr, "probe")
	case OpEnumNext:
		return startProbe(qm.Cursor, l.tr, "probe")
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
		return l.e.accessBatch(ctx, js)
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
// honored *between* draws (bounded by MaxCursorDraw per draw), never inside
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

// ---------------------------------------------------------------- handlers

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	return WriteHealthz(w)
}

// WriteHealthz answers a liveness probe.
func WriteHealthz(w http.ResponseWriter) error { return writeNegotiated(w, healthzBody, false) }

// handleReadyz reports whether the daemon should receive traffic: liveness
// (healthz) says the process runs; readiness says it serves — a published
// generation with entries, WAL replay finished (the daemon sequences that
// before listening), and no drain in progress.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	_, gen := s.reg.Snapshot()
	return WriteReadyz(w, s.Ready(), gen)
}

// readyzResponse renders a readiness verdict. Unready is 503 so load
// balancers and kubelet-style probes fail it without parsing the body.
func readyzResponse(dst []byte, ready bool, gen uint64) (status int, body []byte) {
	status = http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	return status, appendReadyzBody(dst, ready, gen)
}

// WriteReadyz answers a readiness probe.
func WriteReadyz(w http.ResponseWriter, ready bool, gen uint64) error {
	enc := getEnc()
	defer enc.release()
	status, body := readyzResponse(enc.buf, ready, gen)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err := w.Write(body)
	return err
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) error {
	_, gen := s.reg.Snapshot()
	return WriteJSON(w, map[string]any{"queries": s.reg.Names(), "generation": gen})
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request, e *Entry, v view) error {
	return WriteJSON(w, map[string]any{
		"name":         e.Name,
		"kind":         e.Kind(),
		"count":        e.Count(),
		"head":         e.Head(),
		"query":        e.Text,
		"capabilities": e.H.Capabilities(),
	})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, e *Entry, v view) error {
	if _, err := e.H.Updater(); err != nil {
		return err // static index: 501 via ErrUnsupported
	}
	var body struct {
		Op       string   `json:"op"`
		Relation string   `json:"relation"`
		Tuple    []string `json:"tuple"`
	}
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	var op wal.Op
	switch body.Op {
	case "insert":
		op = wal.OpInsert
	case "delete":
		op = wal.OpDelete
	default:
		return HTTPErrorf(http.StatusBadRequest, "op must be insert or delete, got %q", body.Op)
	}
	// ApplyUpdate validates the target relation and arity before interning,
	// logging, or applying anything — an insert aimed at a relation the
	// query never joins must not grow the append-only dictionary (the same
	// unbounded-memory attack the delete path always defended against).
	// Under its update mutex it re-resolves the entry and dictionary from
	// one snapshot load, so a compaction or rebuild publishing between this
	// handler's view and the apply cannot strand the update in a superseded
	// handle or split entry and dictionary across generations. When a WAL is
	// attached, the record is durable before the index changes and this
	// response is the acknowledgment.
	changed, err := s.reg.ApplyUpdate(e, v.db, op, body.Relation, body.Tuple)
	if err != nil {
		if errors.Is(err, errWALAppend) || renum.IsUnsupported(err) {
			return err // 500 / 501 via the route error mapper
		}
		return HTTPErrorf(http.StatusBadRequest, "%v", err)
	}
	enc := getEnc()
	defer enc.release()
	return writeNegotiated(w, appendChangedBody(enc.buf, changed, e.Count()), false)
}

func (s *Server) handleAdminLoad(w http.ResponseWriter, r *http.Request) error {
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
	if err := s.reg.LoadTable(body.Name, strings.NewReader(body.CSV)); err != nil {
		return HTTPErrorf(http.StatusBadRequest, "%v", err)
	}
	return WriteJSON(w, map[string]any{"loaded": body.Name})
}

func (s *Server) handleAdminRegister(w http.ResponseWriter, r *http.Request) error {
	var body struct {
		Program string `json:"program"`
		Dynamic bool   `json:"dynamic"`
	}
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	names, err := s.reg.Register(body.Program, body.Dynamic)
	if err != nil {
		return HTTPErrorf(http.StatusBadRequest, "%v", err)
	}
	return WriteJSON(w, map[string]any{"registered": names})
}

func (s *Server) handleAdminSave(w http.ResponseWriter, r *http.Request) error {
	if s.cfg.SnapshotDir == "" {
		return HTTPErrorf(http.StatusBadRequest, "snapshot saving is not configured (start the daemon with -snapshot-dir)")
	}
	path, gen, skipped, err := s.reg.SaveSnapshot(s.cfg.SnapshotDir)
	if err != nil {
		return err
	}
	if skipped == nil {
		skipped = []string{}
	}
	return WriteJSON(w, map[string]any{"saved": path, "generation": gen, "skipped": skipped})
}

// handleAdminCompact folds the WAL into a fresh snapshot generation (see
// Registry.Compact). It needs both a WAL (-wal-dir) and a snapshot dir.
func (s *Server) handleAdminCompact(w http.ResponseWriter, r *http.Request) error {
	if s.cfg.SnapshotDir == "" {
		return HTTPErrorf(http.StatusBadRequest, "snapshot saving is not configured (start the daemon with -snapshot-dir)")
	}
	gen, folded, err := s.reg.Compact(s.cfg.SnapshotDir)
	if err != nil {
		if errors.Is(err, errNoWAL) {
			return HTTPErrorf(http.StatusBadRequest, "%v", err)
		}
		// Snapshot-write, rotation, or rebuild-aside failures are server
		// faults, not client mistakes: 500 via the route error mapper.
		return err
	}
	return WriteJSON(w, map[string]any{"generation": gen, "folded": folded})
}

func (s *Server) handleAdminRebuild(w http.ResponseWriter, r *http.Request) error {
	if err := s.reg.Rebuild(); err != nil {
		return HTTPErrorf(http.StatusBadRequest, "%v", err)
	}
	_, gen := s.reg.Snapshot()
	return WriteJSON(w, map[string]any{"rebuilt": true, "generation": gen})
}
