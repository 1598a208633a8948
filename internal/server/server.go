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
// Every probe op — count, access, batch, page, sample, contains, inverted,
// update and the cursor ops — is implemented once, in the endpoint core
// (core.go): a parsed request and a row Source in, response bytes out. A
// Server (this file) is the front both daemons share: the request bracket
// (per-endpoint instruments, trace ring, slow log), the operational and
// catalog handlers, the ops mounted on the net/http mux, and the fast
// connection loop (fastloop.go) in front of that mux. What it serves is a
// Catalog: renumd's is a Registry whose every {query} is an Entry probed in
// this process (daemon.go), the router's (internal/server/router) fetches rows
// from shard daemons. Only the daemon adds routes of its own: the admin
// surface.
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
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
)

// Config tunes a Server. The probe fan-out is configured on the Registry
// (NewRegistry), which owns entry construction — each entry's Handle carries
// its worker budget.
type Config struct {
	// CursorTTL evicts idle enumeration sessions (0 = 5 minutes).
	CursorTTL time.Duration
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

// Server is the HTTP front of one daemon — renumd's over a Registry (New),
// the router's over its shard fleet (NewFront).
type Server struct {
	// run resolves {query} and runs one op on it: admit, parse (through p,
	// once the source is known), then the core.
	run      func(ctx context.Context, name []byte, req *request, p parser, enc *enc, tr *traceRec) (body []byte, isWire bool, err error)
	list     func() (names []string, gen uint64, err error)
	ready    func() (ready bool, gen uint64)
	cursors  func() int // the core's live cursors
	stop     func()     // the core's Close
	metrics  *metricsRecorder
	obs      *obs.Registry
	traces   *traceStore
	logger   *slog.Logger
	slowLog  time.Duration
	draining atomic.Bool
	mux      *http.ServeMux
}

// Catalog is what a front serves: how {query} resolves to a Source, which
// queries there are, and whether they can be served.
type Catalog[R Row] interface {
	// Lookup resolves {query}. Its error is the response: a 404 for a name
	// it does not serve, a 503 while it cannot tell.
	Lookup(name []byte) (Source[R], error)
	// List returns the served names, sorted, and their generation.
	List() (names []string, gen uint64, err error)
	// Ready reports whether every query can be served, and the generation.
	Ready() (ready bool, gen uint64)
}

// NewFront returns a front over cat whose ops run on core, with its own
// metrics registry, the default trace ring and no slow log. Close closes
// core.
func NewFront[R Row](core *Core[R], cat Catalog[R]) *Server {
	lookup := func(name []byte, _ *enc, _ *traceRec) (Source[R], error) { return cat.Lookup(name) }
	return newServer(core, obs.NewRegistry(), lookup, cat.List, cat.Ready, Config{})
}

// parser fills a request whose op is set from what its transport parsed.
type parser interface {
	parse(req *request, enc *enc) error
}

// newServer builds a front whose ops run on core over the sources lookup
// resolves: into the request's scratch for the daemon, ignoring it for a
// Catalog. /metrics serves reg, which the front adds its own families to.
func newServer[R Row](core *Core[R], reg *obs.Registry, lookup func(name []byte, enc *enc, tr *traceRec) (Source[R], error),
	list func() ([]string, uint64, error), ready func() (bool, uint64), cfg Config) *Server {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		run: func(ctx context.Context, name []byte, req *request, p parser, enc *enc, tr *traceRec) ([]byte, bool, error) {
			src, err := lookup(name, enc, tr)
			if err == nil {
				if tr != nil {
					tr.query = src.Name()
				}
				err = admit(req.op, src)
			}
			if err == nil {
				err = p.parse(req, enc)
			}
			if err != nil {
				return nil, false, err
			}
			return core.do(ctx, src, req, enc)
		},
		list:    list,
		ready:   ready,
		cursors: core.LiveCursors,
		stop:    core.Close,
		metrics: newMetricsRecorder(reg),
		obs:     reg,
		traces:  newTraceStore(cfg.TraceBuffer),
		logger:  logger,
		slowLog: cfg.SlowLog,
		mux:     http.NewServeMux(),
	}
	s.registerCollectors()
	s.route("GET /healthz", "healthz", func(w http.ResponseWriter, _ *http.Request) error {
		return writeNegotiated(w, healthzBody, false)
	})
	s.route("GET /readyz", "readyz", s.handleReadyz)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.route("GET /debug/traces", "debug_traces", s.handleDebugTraces)
	s.route("GET /v1", "list", s.handleList)
	for _, m := range []struct {
		pattern string
		op      Op
	}{
		{"GET /v1/{query}", OpMeta},
		{"GET /v1/{query}/count", OpCount},
		{"GET /v1/{query}/access", OpAccess},
		{"GET /v1/{query}/batch", OpBatch},
		{"POST /v1/{query}/batch", OpBatch},
		{"GET /v1/{query}/page", OpPage},
		{"GET /v1/{query}/sample", OpSample},
		{"POST /v1/{query}/contains", OpContains},
		{"POST /v1/{query}/inverted", OpInverted},
		{"POST /v1/{query}/update", OpUpdate},
		{"POST /v1/{query}/enum/start", OpEnumStart},
		{"GET /v1/{query}/enum/next", OpEnumNext},
		{"DELETE /v1/{query}/enum", OpEnumClose},
	} {
		s.op(m.pattern, m.op)
	}
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the registry /metrics serves, for families of the
// daemon's own.
func (s *Server) Metrics() *obs.Registry { return s.obs }

// SetReady flips the /readyz verdict. The daemon sets it false at the top
// of a drain so load balancers stop routing new work before the listener
// goes away, and (already true by default) leaves it true once boot — WAL
// replay included — has finished.
func (s *Server) SetReady(ready bool) { s.draining.Store(!ready) }

// Ready reports the /readyz verdict: the operator has not started a drain
// AND the catalog can serve — for renumd, a published generation with at
// least one entry (a daemon serving nothing is not ready for traffic).
func (s *Server) Ready() bool {
	ready, _ := s.readiness()
	return ready
}

func (s *Server) readiness() (bool, uint64) {
	ready, gen := s.ready()
	return ready && !s.draining.Load(), gen
}

// Close stops background work (cursor janitor) and marks the server
// unready. In-flight requests are the transport's business.
func (s *Server) Close() {
	s.draining.Store(true)
	s.stop()
}

// ------------------------------------------------------------------ errors

// httpError carries a status code through the handler plumbing.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func (e *httpError) HTTPStatus() int { return e.status }

// HTTPErrorf returns an error that writeError renders with the given status.
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

// writeError renders err as the {"error": msg} response under its status.
func writeError(w http.ResponseWriter, err error) {
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
	return d, status, s.slowLog > 0 && d >= s.slowLog
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
			writeError(cw, err)
		}
		if d, status, slow := s.end(b, err, cw.n); slow {
			s.logSlow(name, r.URL.Path, r.PathValue("query"), reqID, d, status)
		}
		cw.ResponseWriter = nil
		cwPool.Put(cw)
	})
}

// writeJSON is the reflection-based fallback for cold, registry-shaped
// endpoints (list, traces, admin). Hot probe responses go through the pooled
// builders in encode.go instead.
func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return HTTPErrorf(http.StatusBadRequest, "body: %v", err)
	}
	return nil
}

// op mounts one core op on the mux.
func (s *Server) op(pattern string, op Op) {
	s.route(pattern, opNames[op], func(w http.ResponseWriter, r *http.Request) error {
		enc := getEnc()
		defer enc.release()
		req := request{op: op}
		body, isWire, err := s.run(r.Context(), []byte(r.PathValue("query")), &req, httpRequest{r}, enc, traceFrom(r.Context()))
		if err != nil {
			return err
		}
		return writeNegotiated(w, body, isWire)
	})
}

// httpRequest parses a mux request: its query string, or its JSON body.
type httpRequest struct{ r *http.Request }

func (h httpRequest) parse(req *request, enc *enc) error { return parseHTTP(req, h.r, enc) }

// ---------------------------------------------------------------- handlers

// handleReadyz reports whether the daemon should receive traffic: liveness
// (healthz) says the process runs; readiness says it serves — for renumd, a
// published generation with entries, WAL replay finished (the daemon
// sequences that before listening), and no drain in progress.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	enc := getEnc()
	defer enc.release()
	ready, gen := s.readiness()
	status, body := readyzResponse(enc.buf, ready, gen)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err := w.Write(body)
	return err
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

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) error {
	names, gen, err := s.list()
	if err != nil {
		return err
	}
	return writeJSON(w, map[string]any{"queries": names, "generation": gen})
}
