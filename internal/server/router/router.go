// Package router is the scale-out tier: one stateless HTTP daemon that
// composes K shard daemons (renumd -shard-slice i/K) back into a single
// query surface. Each shard serves a contiguous window of the global
// enumeration order as local positions; the router scrapes per-shard counts
// into a prefix-sum table and routes global positions to (shard, local) in
// O(log K).
//
// # Byte-identity
//
// The router's probe responses are byte-identical to a single unsharded
// daemon's because they are the daemon's own code: every probe op runs
// through internal/server's endpoint core — the same validation, error
// strings, body builders, Accept negotiation and cursor store — over a
// Source that fetches rows from the shards instead of a local index
// (remote, below). What the router adds is only the row source: random-order
// cursors and /sample consume a seeded rng exactly like the library
// backends (one lazy Fisher–Yates over the global count), and shard-to-router
// hops negotiate the binary wire format (internal/wire) so fan-out bandwidth
// does not pay JSON costs twice.
//
// # Degradation
//
// The router degrades honestly rather than silently: /readyz is 503 until
// every shard has scraped ready, any shard fault during a probe is a typed
// 502 naming the failing daemon (and flips /readyz until a scrape proves
// the fleet back), and a mid-batch shard death fails that request without
// corrupting cursor state — the cursor only advances on success, so the
// client resumes cleanly once the shard returns.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shuffle"
	"repro/internal/wire"
)

// Config tunes a Router.
type Config struct {
	// Shards is the static fleet: base URLs (http://host:port) in shard
	// order. Shard order IS the global enumeration order — it must match the
	// -shard-slice indexes the daemons were booted with.
	Shards []string
	// ShardsFile, when set, overrides Shards with a newline-separated URL
	// list read from this path (re-read every refresh period) — typically a
	// file in the fleet's shared snapshot dir.
	ShardsFile string
	// Refresh is the scrape period for counts and health (0 = 2s).
	Refresh time.Duration
	// Client performs shard requests (nil = 10s-timeout default client).
	Client *http.Client
	// MaxBatch bounds one /batch or /page request (0 = 1<<16).
	MaxBatch int64
	// MaxCursorDraw bounds n of one /enum/next call (0 = 1<<16).
	MaxCursorDraw int64
	// CursorTTL evicts idle enumeration sessions (0 = 5 minutes).
	CursorTTL time.Duration
	// CursorSweep is the janitor period (0 = TTL/4, min 1s).
	CursorSweep time.Duration
	// Logger receives scrape-failure lines. Nil means slog.Default().
	Logger *slog.Logger
}

// shardMetrics is one shard's instrument set, resolved once per shard.
type shardMetricsSet struct {
	reqs    *obs.Counter
	errs    *obs.Counter
	lat     *obs.Histogram
	healthy *obs.Gauge
	up      atomic.Bool
}

// Router is the HTTP face of a shard fleet.
type Router struct {
	cfg    Config
	client *http.Client
	logger *slog.Logger

	table atomic.Pointer[table]
	core  *server.Core[[]string]
	mux   *http.ServeMux

	obs       *obs.Registry
	fanouts   *obs.Counter // number of scatter-gather rounds
	fanoutSum *obs.Counter // total sub-requests across rounds (sum of widths)
	scrapes   *obs.Counter
	scrapeErr *obs.Counter

	mu     sync.Mutex // guards shards map growth
	shards map[string]*shardMetricsSet

	draining atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New wires a router. Call Start to begin scraping (the first successful
// scrape flips /readyz), and Close to stop background work.
func New(cfg Config) *Router {
	if cfg.Refresh <= 0 {
		cfg.Refresh = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	reg := obs.NewRegistry()
	r := &Router{
		cfg:    cfg,
		client: client,
		logger: logger,
		core: server.NewCore[[]string](server.Limits{
			MaxBatch: cfg.MaxBatch, MaxCursorDraw: cfg.MaxCursorDraw,
			CursorTTL: cfg.CursorTTL, CursorSweep: cfg.CursorSweep,
		}),
		mux:       http.NewServeMux(),
		obs:       reg,
		fanouts:   reg.Counter("renum_shard_fanout_total", "Scatter-gather rounds issued by the router.", ""),
		fanoutSum: reg.Counter("renum_shard_fanout_width_total", "Total shard sub-requests across scatter-gather rounds (divide by renum_shard_fanout_total for mean width).", ""),
		scrapes:   reg.Counter("renum_shard_scrapes_total", "Routing-table scrape attempts.", ""),
		scrapeErr: reg.Counter("renum_shard_scrape_errors_total", "Routing-table scrapes that failed.", ""),
		shards:    map[string]*shardMetricsSet{},
		stop:      make(chan struct{}),
	}
	reg.GaugeFunc("renum_router_generation", "Max shard generation in the current routing table.", "", func() float64 {
		if t := r.table.Load(); t != nil {
			return float64(t.gen)
		}
		return 0
	})
	reg.GaugeFunc("renum_router_cursors_live", "Live router-held enumeration cursors.", "", func() float64 {
		return float64(r.core.LiveCursors())
	})
	r.route("GET /healthz", r.handleHealthz)
	r.route("GET /readyz", r.handleReadyz)
	r.route("GET /metrics", r.handleMetrics)
	r.route("GET /v1", r.handleList)
	r.route("GET /v1/{query}", r.query(r.handleMeta))
	r.op("GET /v1/{query}/count", server.OpCount)
	r.op("GET /v1/{query}/access", server.OpAccess)
	r.op("GET /v1/{query}/batch", server.OpBatch)
	r.op("POST /v1/{query}/batch", server.OpBatch)
	r.op("GET /v1/{query}/page", server.OpPage)
	r.op("GET /v1/{query}/sample", server.OpSample)
	r.op("POST /v1/{query}/contains", server.OpContains)
	r.op("POST /v1/{query}/inverted", server.OpInverted)
	r.route("POST /v1/{query}/update", r.query(r.handleUpdate))
	r.op("POST /v1/{query}/enum/start", server.OpEnumStart)
	r.op("GET /v1/{query}/enum/next", server.OpEnumNext)
	r.op("DELETE /v1/{query}/enum", server.OpEnumClose)
	return r
}

// Handler returns the root handler.
func (r *Router) Handler() http.Handler { return r.mux }

// Start launches the scrape loop. The returned channel closes after the
// first scrape attempt (success or not), so a booting daemon can wait for
// the fleet before accepting traffic without racing the first request.
func (r *Router) Start() <-chan struct{} {
	first := make(chan struct{})
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.refresh()
		close(first)
		tick := time.NewTicker(r.cfg.Refresh)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.refresh()
			}
		}
	}()
	return first
}

// Refresh scrapes the fleet once, synchronously (tests and boot paths).
func (r *Router) Refresh(ctx context.Context) error {
	r.scrapes.Inc()
	t, err := r.scrape(ctx)
	if err != nil {
		r.scrapeErr.Inc()
		return err
	}
	r.table.Store(t)
	// A full successful scrape is the proof that flips failed shards back
	// to healthy.
	for _, base := range t.shards {
		m := r.shardMetrics(base)
		m.up.Store(true)
		m.healthy.Set(1)
	}
	return nil
}

func (r *Router) refresh() {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Refresh+10*time.Second)
	defer cancel()
	if err := r.Refresh(ctx); err != nil {
		r.logger.Warn("router: scrape failed", slog.String("error", err.Error()))
	}
}

// SetReady flips the drain flag (false = /readyz reports 503 regardless of
// fleet health; used at the top of a shutdown drain).
func (r *Router) SetReady(ready bool) { r.draining.Store(!ready) }

// Ready reports the /readyz verdict: not draining, a routing table exists,
// and every shard in it is healthy.
func (r *Router) Ready() bool {
	if r.draining.Load() {
		return false
	}
	t := r.table.Load()
	if t == nil {
		return false
	}
	for _, base := range t.shards {
		if !r.shardMetrics(base).up.Load() {
			return false
		}
	}
	return true
}

// Close stops the scrape loop and cursor janitor.
func (r *Router) Close() {
	r.draining.Store(true)
	close(r.stop)
	r.wg.Wait()
	r.core.Close()
}

// shardMetrics resolves (lazily creating) the instrument set for one shard.
func (r *Router) shardMetrics(base string) *shardMetricsSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.shards[base]
	if !ok {
		labels := obs.Labels("shard", base)
		m = &shardMetricsSet{
			reqs:    r.obs.Counter("renum_shard_requests_total", "Requests the router sent to each shard daemon.", labels),
			errs:    r.obs.Counter("renum_shard_request_errors_total", "Shard requests that failed (transport error or 5xx).", labels),
			lat:     r.obs.Histogram("renum_shard_request_duration_seconds", "Latency of router-to-shard requests.", labels),
			healthy: r.obs.Gauge("renum_shard_healthy", "1 when the shard's last interaction succeeded, 0 after a fault (until a scrape proves it back).", labels),
		}
		m.up.Store(true)
		m.healthy.Set(1)
		r.shards[base] = m
	}
	return m
}

func (r *Router) markUnhealthy(base string) {
	m := r.shardMetrics(base)
	m.up.Store(false)
	m.healthy.Set(0)
}

func (r *Router) route(pattern string, h func(w http.ResponseWriter, req *http.Request) error) {
	r.mux.HandleFunc(pattern, func(w http.ResponseWriter, req *http.Request) {
		if err := h(w, req); err != nil {
			server.WriteError(w, err)
		}
	})
}

// query resolves the {query} path element against the current routing
// table. No table yet (fleet never scraped ready) is a 503: the router
// knows nothing, which is different from knowing the query does not exist.
func (r *Router) query(h func(w http.ResponseWriter, req *http.Request, t *table, rt *route) error) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, req *http.Request) error {
		t := r.table.Load()
		if t == nil {
			return errNoTable
		}
		name := req.PathValue("query")
		rt, ok := t.queries[name]
		if !ok {
			return server.NoQuery(name, t.names)
		}
		return h(w, req, t, rt)
	}
}

var errNoTable = server.HTTPErrorf(http.StatusServiceUnavailable, "no routing table yet (shards not scraped ready)")

// op mounts one core op: the daemon's own net/http transport and endpoint
// core, over this fleet's rows.
func (r *Router) op(pattern string, op server.Op) {
	r.route(pattern, r.query(func(w http.ResponseWriter, req *http.Request, t *table, rt *route) error {
		return r.core.Serve(w, req, op, &remote{r: r, t: t, rt: rt})
	}))
}

// ---------------------------------------------------------------- handlers

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) error {
	return server.WriteHealthz(w)
}

func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) error {
	var gen uint64
	if t := r.table.Load(); t != nil {
		gen = t.gen
	}
	return server.WriteReadyz(w, r.Ready(), gen)
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return r.obs.WritePrometheus(w)
}

func (r *Router) handleList(w http.ResponseWriter, req *http.Request) error {
	t := r.table.Load()
	if t == nil {
		return errNoTable
	}
	return server.WriteJSON(w, map[string]any{"queries": t.names, "generation": t.gen})
}

func (r *Router) handleMeta(w http.ResponseWriter, req *http.Request, t *table, rt *route) error {
	return server.WriteJSON(w, map[string]any{
		"name":         rt.name,
		"kind":         rt.kind,
		"count":        rt.total,
		"head":         rt.head,
		"query":        rt.text,
		"capabilities": rt.caps,
	})
}

func (r *Router) handleUpdate(w http.ResponseWriter, req *http.Request, t *table, rt *route) error {
	// A sharded fleet is static by construction (shard slices reject
	// updatable entries); the router mirrors the daemon's vocabulary: 501.
	return fmt.Errorf("updates through the router: %w (shard slices are static)", renum.ErrUnsupported)
}

// ------------------------------------------------------------ remote source

// remote is the router's server.Source: one query of one routing table,
// its rows fetched from the shard daemons as already-rendered strings.
// Everything the client sees of them — validation, framing, cursors — is the
// endpoint core's; remote only locates positions and moves rows. The table
// is immutable, so the draw functions a cursor keeps stay coherent across
// scrapes.
type remote struct {
	r  *Router
	t  *table
	rt *route
}

func (s *remote) Name() string      { return s.rt.name }
func (s *remote) Kind() string      { return s.rt.kind }
func (s *remote) Count() int64      { return s.rt.total }
func (s *remote) Arity() int        { return len(s.rt.head) }
func (s *remote) Dict() *renum.Dict { return nil }

func (s *remote) Has(c renum.Capability) bool { return slices.Contains(s.rt.caps, string(c)) }

// Probe: shard hops are timed per shard (renum_shard_request_duration_seconds),
// not per op.
func (s *remote) Probe(server.Op) server.ProbeClock { return server.ProbeClock{} }

func (s *remote) Access(ctx context.Context, j int64) ([]string, error) {
	sh, local := s.rt.locate(j)
	// The shard answers with its local position; the core frames the body
	// with the global j the client asked for.
	var body struct {
		Answer []string `json:"answer"`
		J      int64    `json:"j"`
	}
	err := s.r.getJSON(ctx, s.t.shards[sh], "/v1/"+s.rt.name+"/access?j="+strconv.FormatInt(local, 10), &body)
	return body.Answer, err
}

// Batch resolves arbitrary global positions: validated up front (one bad
// position fails the whole batch, exactly like the library), split per
// shard through the prefix-sum table, fanned out concurrently, scattered
// back into request order.
func (s *remote) Batch(ctx context.Context, js []int64) ([][]string, error) {
	r, t, rt := s.r, s.t, s.rt
	for _, j := range js {
		if j < 0 || j >= rt.total {
			return nil, renum.ErrOutOfBounds
		}
	}
	out := make([][]string, len(js))
	if len(js) == 0 {
		return out, nil
	}
	perJS := make([][]int64, len(t.shards))
	perAt := make([][]int, len(t.shards))
	for i, j := range js {
		sh, local := rt.locate(j)
		perJS[sh] = append(perJS[sh], local)
		perAt[sh] = append(perAt[sh], i)
	}
	reqs := make([]shardDraw, 0, len(t.shards))
	for sh, local := range perJS {
		if len(local) > 0 {
			reqs = append(reqs, shardDraw{shard: sh, js: local, at: perAt[sh]})
		}
	}
	return out, r.fanOut(ctx, reqs, func(ctx context.Context, _ int, d shardDraw) error {
		rows, err := r.shardBatch(ctx, t.shards[d.shard], rt.name, d.js)
		if err != nil {
			return err
		}
		if len(rows) != len(d.js) {
			return &shardError{shard: t.shards[d.shard], err: fmt.Errorf("batch returned %d rows for %d positions", len(rows), len(d.js))}
		}
		for i, row := range rows {
			out[d.at[i]] = row
		}
		return nil
	})
}

// shardDraw is one shard's portion of a scatter-gather round.
type shardDraw struct {
	shard int
	js    []int64 // local positions (batch) — nil for page draws
	at    []int   // request slots (batch)
	lo, n int64   // local window (page)
}

// fanOut runs one sub-request per shard portion concurrently and collects
// the first error. Fan-out width lands in the router metrics.
func (r *Router) fanOut(ctx context.Context, reqs []shardDraw, do func(context.Context, int, shardDraw) error) error {
	r.fanouts.Inc()
	r.fanoutSum.Add(uint64(len(reqs)))
	if len(reqs) == 1 {
		return do(ctx, 0, reqs[0])
	}
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, d := range reqs {
		wg.Add(1)
		go func(i int, d shardDraw) {
			defer wg.Done()
			errs[i] = do(ctx, i, d)
		}(i, d)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shardBatch posts local positions to one shard's /batch, negotiating the
// binary wire format for the hop, and returns the parsed rows.
func (r *Router) shardBatch(ctx context.Context, base, query string, js []int64) ([][]string, error) {
	body := []byte(`{"js":[`)
	for i, j := range js {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, j, 10)
	}
	body = append(body, ']', '}')
	data, err := r.fetch(ctx, http.MethodPost, base, "/v1/"+query+"/batch", wire.ContentType, strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	_, rows, err := wire.Parse(data)
	if err != nil {
		r.markUnhealthy(base)
		return nil, &shardError{shard: base, err: fmt.Errorf("wire parse: %v", err)}
	}
	return rows, nil
}

// shardPage fetches one shard's local window [lo, lo+n) via /page (wire hop).
func (r *Router) shardPage(ctx context.Context, base, query string, lo, n int64) ([][]string, error) {
	path := fmt.Sprintf("/v1/%s/page?offset=%d&limit=%d", query, lo, n)
	data, err := r.fetch(ctx, http.MethodGet, base, path, wire.ContentType, nil)
	if err != nil {
		return nil, err
	}
	_, rows, err := wire.Parse(data)
	if err != nil {
		r.markUnhealthy(base)
		return nil, &shardError{shard: base, err: fmt.Errorf("wire parse: %v", err)}
	}
	if int64(len(rows)) != n {
		return nil, &shardError{shard: base, err: fmt.Errorf("page returned %d rows for window of %d", len(rows), n)}
	}
	return rows, nil
}

// Page resolves the contiguous global window [offset, offset+k): each
// shard's intersection with the window is one local page request, and the
// shard results concatenate in shard order — which IS global order, by the
// partition contract.
func (s *remote) Page(ctx context.Context, offset, k int64) ([][]string, error) {
	r, t, rt := s.r, s.t, s.rt
	if k == 0 {
		return [][]string{}, nil
	}
	var reqs []shardDraw
	for sh := range t.shards {
		shLo, shHi := rt.starts[sh], rt.starts[sh+1]
		lo, hi := max(offset, shLo), min(offset+k, shHi)
		if lo >= hi {
			continue
		}
		reqs = append(reqs, shardDraw{shard: sh, lo: lo - shLo, n: hi - lo})
	}
	parts := make([][][]string, len(reqs))
	err := r.fanOut(ctx, reqs, func(ctx context.Context, i int, d shardDraw) error {
		rows, err := r.shardPage(ctx, t.shards[d.shard], rt.name, d.lo, d.n)
		if err != nil {
			return err
		}
		parts[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]string, 0, k)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

func (s *remote) Pager() func(context.Context, int64, int64) ([][]string, error) { return s.Page }

// Sample: the shards are static slices, so the global sample is distinct —
// and drawing a lazy Fisher–Yates prefix over the global count consumes the
// seeded rng exactly like the library's sampler: same seed, same positions,
// same bytes as the unsharded daemon.
func (s *remote) Sample(ctx context.Context, k int64, rng *rand.Rand) ([][]string, bool, error) {
	rows, err := s.Batch(ctx, shuffle.New(s.rt.total, rng).Draw(nil, k))
	return rows, false, err
}

// Permute: one lazy Fisher–Yates over the global count, positions drawn
// serially per request — the same rng consumption as the library's
// Permutation, so same-seed draws are byte-identical to a single daemon's.
// Draws are atomic (positions are consumed up front); a failed scatter
// re-draws nothing and the cursor stays alive, so the positions of a failed
// draw ARE lost to that cursor — exactly the each-answer-at-most-once
// reading a fleet can honor.
func (s *remote) Permute(rng *rand.Rand) (func(context.Context, int64) ([][]string, error), error) {
	shuf := shuffle.New(s.rt.total, rng)
	return func(ctx context.Context, k int64) ([][]string, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return s.Batch(ctx, shuf.Draw(nil, k))
	}, nil
}

// forwardTuple re-posts a tuple probe to shard daemons in shard order until
// hit (the shards partition the answer space, so at most one can claim it).
func (s *remote) forwardTuple(ctx context.Context, path string, tuple []string, hit func(shard int, data []byte) (bool, error)) error {
	body, err := json.Marshal(map[string][]string{"tuple": tuple})
	if err != nil {
		return err
	}
	for sh, base := range s.t.shards {
		data, err := s.r.fetch(ctx, http.MethodPost, base, "/v1/"+s.rt.name+path, "", strings.NewReader(string(body)))
		if err != nil {
			return err
		}
		found, err := hit(sh, data)
		if err != nil || found {
			return err
		}
	}
	return nil
}

func (s *remote) Contains(ctx context.Context, cells []string) (contains bool, err error) {
	err = s.forwardTuple(ctx, "/contains", cells, func(sh int, data []byte) (bool, error) {
		var cb struct {
			Contains bool `json:"contains"`
		}
		if err := json.Unmarshal(data, &cb); err != nil {
			return false, &shardError{shard: s.t.shards[sh], err: err}
		}
		contains = cb.Contains
		return cb.Contains, nil
	})
	return contains, err
}

func (s *remote) Inverted(ctx context.Context, cells []string) (j int64, found bool, err error) {
	err = s.forwardTuple(ctx, "/inverted", cells, func(sh int, data []byte) (bool, error) {
		var ib struct {
			Found bool  `json:"found"`
			J     int64 `json:"j"`
		}
		if err := json.Unmarshal(data, &ib); err != nil {
			return false, &shardError{shard: s.t.shards[sh], err: err}
		}
		if ib.Found {
			// The shard found it at a local position; the global position
			// re-bases through the shard's window start.
			j, found = s.rt.starts[sh]+ib.J, true
		}
		return ib.Found, nil
	})
	return j, found, err
}
