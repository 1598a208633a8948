// Package router is the scale-out tier: one stateless HTTP daemon that
// composes K shard daemons (renumd -shard-slice i/K) back into a single
// query surface. Each shard serves a contiguous window of the global
// enumeration order as local positions; the router scrapes per-shard counts
// into a prefix-sum table and routes global positions to (shard, local) in
// O(log K).
//
// # Byte-identity
//
// The router's responses are byte-identical to a single unsharded daemon's
// because they are the daemon's own code: the router is served by
// internal/server's front — the fast connection loop, the mux behind it, the
// request bracket, /metrics and /debug/traces — and every probe op runs
// through its endpoint core — the same validation, error strings, body
// builders, Accept negotiation and cursor store — over a Source that fetches
// rows from the shards instead of a local index (remote, below). What the
// router supplies is only its catalog — how {query} resolves against the
// routing table, the names, generation and readiness — and its
// renum_shard_* families. Random-order cursors and /sample consume a seeded
// rng exactly like the library backends (one lazy Fisher–Yates over the
// global count).
//
// # The hop
//
// Everything sent to a shard goes through the client in client.go: a free
// list of persistent HTTP/1.1 connections per shard, dialled directly
// (http:// over TCP, https:// over TLS; no proxy), one request in flight per
// connection. Rows cross by one function, remote.hop: Access, Batch, Sample
// and random-order draws are GET /batch?js= of local positions and Page is
// GET /page of a local window, always asking for the binary wire format
// (internal/wire), so a shard answers every leg from its fast loop; only a
// /batch too long for the shard's request-line buffer goes as a POST. A
// fan-out writes every leg's request and then reads the replies in shard
// order on the calling goroutine. The client's X-Request-Id — the id the
// front traces the request under — rides every leg, so /debug/traces on the
// router and on each shard shows its part under the same id.
//
// A reply is trusted only after it is checked: the HTTP framing by the
// tier's one line and header reader — the one the fast loop reads requests
// with, total on hostile bytes (FuzzShardReply) — the frame's CRC-32C
// before any length in it, and then that it holds exactly the rows asked, of
// the query's arity. The cells handed to the core alias the reply's buffer, which
// is allocated per reply and never reused, so a cursor draw or a slow client
// may hold it as long as it likes.
//
// A leg is sent a second time in exactly one case: it went out on a pooled
// connection and that connection failed before a single reply byte arrived —
// the shard restarted or timed it out while it idled. Every hop is a read, so
// sending it again is safe; it is redialled once
// (renum_shard_redials_total) and a failure after that, a timeout, or a
// connection that dies part-way through a reply is a fault.
//
// # Degradation
//
// The router degrades honestly rather than silently: /readyz is 503 until
// every shard has scraped ready, any shard fault during a probe — transport
// error, 5xx, or a reply that fails its checks — is a typed 502 naming the
// failing daemon (and flips /readyz until a scrape proves the fleet back),
// and a mid-batch shard death fails that request without corrupting cursor
// state — the cursor only advances on success, so the client resumes cleanly
// once the shard returns.
package router

import (
	"context"
	"encoding/json"
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
	// CursorTTL evicts idle enumeration sessions (0 = 5 minutes).
	CursorTTL time.Duration
	// Logger receives scrape-failure lines. Nil means slog.Default().
	Logger *slog.Logger
}

// Router is the scale-out tier over a shard fleet. It is served by its
// front, a server.Server over the routing table (serve it with
// server.NewFastServer), whose Handler, Ready and SetReady it answers with.
type Router struct {
	*server.Server
	cfg    Config
	logger *slog.Logger

	table atomic.Pointer[table]

	fanouts   *obs.Counter // row hops
	fanoutSum *obs.Counter // shard legs across hops (sum of widths)
	scrapes   *obs.Counter
	scrapeErr *obs.Counter

	mu     sync.Mutex // guards shards; only scrapes take it
	shards map[string]*shard

	stop chan struct{}
	wg   sync.WaitGroup
}

// New wires a router. Call Start to begin scraping (the first successful
// scrape flips /readyz), and Close to stop background work.
func New(cfg Config) *Router {
	if cfg.Refresh <= 0 {
		cfg.Refresh = 2 * time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	r := &Router{
		cfg:    cfg,
		logger: logger,
		shards: map[string]*shard{},
		stop:   make(chan struct{}),
	}
	r.Server = server.NewFront(server.NewCore[[][]byte](cfg.CursorTTL), catalog{r})
	reg := r.Metrics()
	r.fanouts = reg.Counter("renum_shard_fanout_total", "Row hops the router made: one per /access, /batch, /page, /sample or cursor draw.", "")
	r.fanoutSum = reg.Counter("renum_shard_fanout_width_total", "Total shard legs across row hops (divide by renum_shard_fanout_total for mean width).", "")
	r.scrapes = reg.Counter("renum_shard_scrapes_total", "Routing-table scrape attempts.", "")
	r.scrapeErr = reg.Counter("renum_shard_scrape_errors_total", "Routing-table scrapes that failed.", "")
	return r
}

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
	// to healthy. A shard the fleet file dropped keeps its series but not its
	// sockets.
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sh := range r.shards {
		if slices.Contains(t.shards, sh) {
			sh.setUp(true)
		} else {
			sh.closeIdle()
		}
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

// Close stops the scrape loop and cursor janitor and closes the idle shard
// connections. Call it once the front has drained.
func (r *Router) Close() {
	close(r.stop)
	r.wg.Wait()
	r.Server.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sh := range r.shards {
		sh.closeIdle()
	}
}

// shard resolves (creating it the first time a scrape names it) the state of
// the daemon at base.
func (r *Router) shard(base string) (*shard, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, ok := r.shards[base]
	if !ok {
		var err error
		if sh, err = newShard(base, r.Metrics()); err != nil {
			return nil, err
		}
		r.shards[base] = sh
	}
	return sh, nil
}

// catalog is the fleet as the front serves it: the current routing table.
// No table yet (the fleet never scraped ready) is a 503: the router knows
// nothing, which is different from knowing a query does not exist.
type catalog struct{ r *Router }

var errNoTable = server.HTTPErrorf(http.StatusServiceUnavailable, "no routing table yet (shards not scraped ready)")

func (c catalog) Lookup(name []byte) (server.Source[[][]byte], error) {
	t := c.r.table.Load()
	if t == nil {
		return nil, errNoTable
	}
	rt, ok := t.queries[string(name)]
	if !ok {
		return nil, server.NoQuery(string(name), t.names)
	}
	return &rt.src, nil
}

func (c catalog) List() ([]string, uint64, error) {
	t := c.r.table.Load()
	if t == nil {
		return nil, 0, errNoTable
	}
	return t.names, t.gen, nil
}

// Ready: a routing table exists and every shard in it is healthy.
func (c catalog) Ready() (bool, uint64) {
	t := c.r.table.Load()
	if t == nil {
		return false, 0
	}
	for _, sh := range t.shards {
		if !sh.up.Load() {
			return false, t.gen
		}
	}
	return true, t.gen
}

// ------------------------------------------------------------ remote source

// remote is the router's server.Source: one query of one routing table, its
// rows fetched from the shard daemons as cells that alias the replies they
// arrived in. Everything the client sees of them — validation, framing,
// cursors — is the endpoint core's; remote only locates positions and moves
// rows. The table is immutable, so the draw functions a cursor keeps stay
// coherent across scrapes.
type remote struct {
	r  *Router
	t  *table
	rt *route
}

func (s *remote) Name() string      { return s.rt.meta.Name }
func (s *remote) Kind() string      { return s.rt.meta.Kind }
func (s *remote) Count() int64      { return s.rt.total }
func (s *remote) Arity() int        { return len(s.rt.meta.Head) }
func (s *remote) Dict() *renum.Dict { return nil }

func (s *remote) Has(c renum.Capability) bool { return slices.Contains(s.rt.meta.Capabilities, c) }

// Meta is the shards' description of the query, counted over the fleet.
func (s *remote) Meta() server.Meta {
	m := s.rt.meta
	m.Count = s.rt.total
	return m
}

// Update: a sharded fleet is static by construction (shard slices reject
// updatable entries), so no shard reports CapUpdate and the core answers 501
// before asking.
func (s *remote) Update(context.Context, bool, string, []string) (bool, error) {
	return false, renum.ErrUnsupported
}

// Probe: shard hops are timed per shard (renum_shard_request_duration_seconds),
// not per op.
func (s *remote) Probe(server.Op) server.ProbeClock { return server.ProbeClock{} }

// leg is one shard's part of a hop: which of the asked positions it answers
// (at indexes js and out alike), or which local window [lo, lo+n) whose rows
// land in out from base on.
type leg struct {
	shard int
	at    []int
	lo    int64
	n     int
	base  int
	c     *conn
}

// newRows returns n empty rows of the query's arity over one cell block.
func (s *remote) newRows(n int) [][][]byte {
	arity := len(s.rt.meta.Head)
	rows, cells := make([][][]byte, n), make([][]byte, n*arity)
	for i := range rows {
		rows[i] = cells[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return rows
}

// hop is the one way rows cross to the shards and back. It writes every
// leg's request — GET /batch?js= of local positions, or GET /page of a local
// window, always negotiating the wire format, so a shard answers from its
// fast loop — then reads the replies in shard order on this goroutine: the
// shards work at the same time and the hop takes as long as the slowest. Each
// reply is checked (CRC, then exactly the rows asked, of this query's arity)
// and its cells are stored into out still aliasing the reply's buffer. After
// a failed leg the connections whose replies were not read are closed, not
// returned: an unread reply would answer the next request sent there.
func (s *remote) hop(ctx context.Context, legs []leg, js []int64, out [][][]byte) (err error) {
	s.r.fanouts.Inc()
	s.r.fanoutSum.Add(uint64(len(legs)))
	sent := 0 // legs holding a connection with a reply due on it
	for err == nil && sent < len(legs) {
		if err = s.sendLeg(ctx, &legs[sent], js); err == nil {
			sent++
		}
	}
	for i := range legs[:sent] {
		if err != nil {
			legs[i].c.nc.Close()
		} else {
			err = s.recvLeg(ctx, &legs[i], out)
		}
	}
	return err
}

// recvLeg reads one leg's reply, checks it and stores its rows.
func (s *remote) recvLeg(ctx context.Context, l *leg, out [][][]byte) error {
	sh := s.t.shards[l.shard]
	body, err := sh.recv(ctx, l.c)
	if err != nil {
		return err
	}
	err = parseRows(body, l.n, len(s.rt.meta.Head), func(row, col int, val []byte) {
		if l.at != nil {
			row = l.at[row]
		} else {
			row += l.base
		}
		out[row][col] = val
	})
	if err != nil {
		return sh.fail(err)
	}
	return nil
}

// sendLeg writes one leg's request.
func (s *remote) sendLeg(ctx context.Context, l *leg, js []int64) (err error) {
	sh, start := s.t.shards[l.shard], s.rt.starts[l.shard]
	if l.at == nil {
		if l.c, err = sh.begin(ctx, http.MethodGet, s.rt.pagePath); err != nil {
			return err
		}
		l.c.req = strconv.AppendInt(l.c.req, l.lo, 10)
		l.c.req = append(l.c.req, "&limit="...)
		l.c.req = strconv.AppendInt(l.c.req, int64(l.n), 10)
		return sh.send(ctx, l.c, wire.ContentType, nil)
	}
	if l.c, err = sh.begin(ctx, http.MethodGet, s.rt.batchPath); err != nil {
		return err
	}
	list := len(l.c.req)
	for i, at := range l.at {
		if i > 0 {
			l.c.req = append(l.c.req, ',')
		}
		l.c.req = strconv.AppendInt(l.c.req, js[at]-start, 10)
	}
	var body []byte
	if len(l.c.req) > maxRequestLine {
		body = append(append([]byte(`{"js":[`), l.c.req[list:]...), ']', '}')
		l.c.req = sh.appendLine(l.c.req[:0], http.MethodPost, strings.TrimSuffix(s.rt.batchPath, "?js="))
	}
	return sh.send(ctx, l.c, wire.ContentType, body)
}

func (s *remote) Access(ctx context.Context, j int64) ([][]byte, error) {
	// A batch of one: the shard answers its local position, the core frames
	// the body with the global j the client asked for.
	sh, _ := s.rt.locate(j)
	js, at, out := [1]int64{j}, [1]int{0}, [1][][]byte{make([][]byte, len(s.rt.meta.Head))}
	legs := [1]leg{{shard: sh, at: at[:], n: 1}}
	err := s.hop(ctx, legs[:], js[:], out[:])
	return out[0], err
}

// Batch resolves arbitrary global positions: validated up front (one bad
// position fails the whole batch, exactly like the library), grouped per
// shard through the prefix-sum table by a counting sort, and scattered back
// into request order as the replies are read.
func (s *remote) Batch(ctx context.Context, js []int64) ([][][]byte, error) {
	rt, k := s.rt, len(s.t.shards)
	for _, j := range js {
		if j < 0 || j >= rt.total {
			return nil, renum.ErrOutOfBounds
		}
	}
	out := s.newRows(len(js))
	if len(js) == 0 {
		return out, nil
	}
	// One block: each position's shard, the positions grouped by shard, and
	// where each shard's group begins.
	block := make([]int, 2*len(js)+k+1)
	of, at, begin := block[:len(js)], block[len(js):2*len(js)], block[2*len(js):]
	for i, j := range js {
		of[i], _ = rt.locate(j)
		begin[of[i]+1]++
	}
	legs := make([]leg, 0, k)
	for sh := 0; sh < k; sh++ {
		if n := begin[sh+1]; n > 0 {
			legs = append(legs, leg{shard: sh, at: at[begin[sh] : begin[sh]+n], n: n})
		}
		begin[sh+1] += begin[sh]
	}
	for i, sh := range of {
		at[begin[sh]] = i
		begin[sh]++
	}
	return out, s.hop(ctx, legs, js, out)
}

// Page resolves the contiguous global window [offset, offset+k): each
// shard's intersection with the window is one local page request, and the
// shard results concatenate in shard order — which IS global order, by the
// partition contract.
func (s *remote) Page(ctx context.Context, offset, k int64) ([][][]byte, error) {
	out := s.newRows(int(k))
	if k == 0 {
		return out, nil
	}
	legs := make([]leg, 0, len(s.t.shards))
	for sh := range s.t.shards {
		shLo, shHi := s.rt.starts[sh], s.rt.starts[sh+1]
		if lo, hi := max(offset, shLo), min(offset+k, shHi); lo < hi {
			legs = append(legs, leg{shard: sh, lo: lo - shLo, n: int(hi - lo), base: int(lo - offset)})
		}
	}
	return out, s.hop(ctx, legs, nil, out)
}

func (s *remote) Pager() func(context.Context, int64, int64) ([][][]byte, error) { return s.Page }

// Sample: the shards are static slices, so the global sample is distinct —
// and drawing a lazy Fisher–Yates prefix over the global count consumes the
// seeded rng exactly like the library's sampler: same seed, same positions,
// same bytes as the unsharded daemon.
func (s *remote) Sample(ctx context.Context, k int64, rng *rand.Rand) ([][][]byte, bool, error) {
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
func (s *remote) Permute(rng *rand.Rand) (func(context.Context, int64) ([][][]byte, error), error) {
	shuf := shuffle.New(s.rt.total, rng)
	return func(ctx context.Context, k int64) ([][][]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return s.Batch(ctx, shuf.Draw(nil, k))
	}, nil
}

// forwardTuple re-posts a tuple probe to shard daemons in shard order until
// hit (the shards partition the answer space, so at most one can claim it).
func (s *remote) forwardTuple(ctx context.Context, path string, tuple []string, v any, hit func(shard int) bool) error {
	body, err := json.Marshal(map[string][]string{"tuple": tuple})
	if err != nil {
		return err
	}
	for i, sh := range s.t.shards {
		if err := sh.doJSON(ctx, http.MethodPost, "/v1/"+s.rt.meta.Name+path, body, v); err != nil {
			return err
		}
		if hit(i) {
			return nil
		}
	}
	return nil
}

func (s *remote) Contains(ctx context.Context, cells []string) (bool, error) {
	var cb struct {
		Contains bool `json:"contains"`
	}
	err := s.forwardTuple(ctx, "/contains", cells, &cb, func(int) bool { return cb.Contains })
	return cb.Contains, err
}

func (s *remote) Inverted(ctx context.Context, cells []string) (j int64, found bool, err error) {
	var ib struct {
		Found bool  `json:"found"`
		J     int64 `json:"j"`
	}
	err = s.forwardTuple(ctx, "/inverted", cells, &ib, func(sh int) bool {
		if ib.Found {
			// The shard found it at a local position; the global position
			// re-bases through the shard's window start.
			j, found = s.rt.starts[sh]+ib.J, true
		}
		return ib.Found
	})
	return j, found, err
}
