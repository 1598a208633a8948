package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/dynaccess"
	"repro/internal/server"
	"repro/internal/server/router"
	"repro/internal/shuffle"
)

// The layer ladder replays one seeded sample of a workload's requests, one
// client, at each successively outer boundary of the stack:
//
//	access.Index -> renum.Handle -> server handler -> in-process fast loop
//	(and net/http) over loopback -> renumd subprocess -> router
//
// Each rung is a span whose child is the rung inside it; a rung's self time
// is its median minus its child's median, so the self times add up to the
// outermost rung by construction. What they attribute is the question the
// ROADMAP asks: where does a request's time go between the socket and the
// bucket binary search.

// exchanger sends request bytes somewhere and returns the reply.
type exchanger func(req []byte) (status int, body []byte, err error)

// makeSample draws n requests of the workload's mix from one generator.
// Requests are deep copies: the generator reuses its scratch.
func makeSample(tr *traffic, seed int64, n int, db *renum.Database, h *renum.Handle) ([]request, error) {
	g := newGenerator(tr, seed, 0, db, h, new(sync.Map))
	out := make([]request, n)
	for i := range out {
		if err := g.next(&out[i]); err != nil {
			return nil, err
		}
		out[i].js = append([]int64(nil), out[i].js...)
		out[i].first, out[i].seed = false, 0
	}
	return out, nil
}

// rungResult is one rung's latencies (µs per request) and what went wrong.
type rungResult struct {
	lat    []float64
	failed int
	err    string
}

func (r rungResult) median() float64 { return median(sortedCopy(r.lat)) }

// replay runs the sample through exec until it is exhausted or the time
// budget is spent (never fewer than minReplay requests), recording a span
// per request.
func replay(t *tracer, name, parent string, sample []request, budget time.Duration, exec func(r *request) error) rungResult {
	const minReplay = 200
	var res rungResult
	res.lat = make([]float64, 0, len(sample))
	deadline := time.Now().Add(budget)
	for i := range sample {
		start := time.Now()
		if i >= minReplay && start.After(deadline) {
			break
		}
		err := exec(&sample[i])
		end := time.Now()
		t.span(name, parent, start, end, uint64(i))
		res.lat = append(res.lat, float64(end.Sub(start))/1e3)
		if err != nil {
			res.failed++
			if res.err == "" {
				res.err = fmt.Sprintf("%s: request %d (%s): %v", name, i, sample[i].kind, err)
			}
		}
	}
	return res
}

// salted returns r with an update's inserted key prefixed, so that every
// rung inserts tuples of its own into state it may share with another rung.
func salted(r *request, salt string) *request {
	if r.kind != kUpdate {
		return r
	}
	c := *r
	c.cells = append([]string{salt + r.cells[0]}, r.cells[1:]...)
	return &c
}

// --------------------------------------------------------- in-process rungs

// staticIndexExec executes requests against the bare access.Index: every
// request is reduced to the probes it needs.
func staticIndexExec(c *cqenum.CQ, dict *renum.Dict) func(r *request) error {
	idx := c.Index
	row := make(renum.Tuple, len(idx.Head()))
	count := idx.Count()
	var perm *cqenum.RandomPermutation
	probe := func(j int64) error { return idx.AccessInto(j, row) }
	return func(r *request) error {
		switch r.kind {
		case kAccess:
			return probe(r.j)
		case kCount:
			_ = idx.Count()
		case kBatch, kBatchWire:
			for _, j := range r.js {
				if err := probe(j); err != nil {
					return err
				}
			}
		case kPage:
			for i := int64(0); i < pageLen(count, r.j, r.n); i++ {
				if err := probe(r.j + i); err != nil {
					return err
				}
			}
		case kSample:
			sh := shuffle.New(count, rand.New(rand.NewSource(r.j)))
			for i := int64(0); i < r.n; i++ {
				j, ok := sh.Next()
				if !ok {
					break
				}
				if err := probe(j); err != nil {
					return err
				}
			}
		case kEnumNext:
			if perm == nil {
				perm = c.Permute(rand.New(rand.NewSource(1)))
			}
			if ts := perm.NextN(r.n, 1); int64(len(ts)) < r.n {
				perm = nil
			}
		case kContains:
			t := make(renum.Tuple, len(r.cells))
			for i, cell := range r.cells {
				v, ok := dict.Lookup(cell)
				if !ok {
					return fmt.Errorf("unknown cell %q", cell)
				}
				t[i] = v
			}
			if !idx.Contains(t) {
				return fmt.Errorf("%v not contained", r.cells)
			}
		default:
			return fmt.Errorf("no index form of %s", r.kind)
		}
		return nil
	}
}

// dynamicIndexExec is the same for the updatable index.
func dynamicIndexExec(idx *dynaccess.Index, dict *renum.Dict) func(r *request) error {
	row := make(renum.Tuple, len(idx.Head()))
	intern := func(cells []string) renum.Tuple { return internCells(dict, cells) }
	return func(r *request) error {
		switch r.kind {
		case kAccess:
			return idx.AccessInto(r.j, row)
		case kCount:
			_ = idx.Count()
		case kSample:
			idx.SampleN(r.n, rand.New(rand.NewSource(r.j)))
		case kContains:
			if !idx.Contains(intern(r.cells)) {
				return fmt.Errorf("%v not contained", r.cells)
			}
		case kUpdate:
			var err error
			if r.op == "insert" {
				_, err = idx.Insert(r.rel, intern(r.cells))
			} else {
				_, err = idx.Delete(r.rel, intern(r.cells))
			}
			return err
		default:
			return fmt.Errorf("no dynamic index form of %s", r.kind)
		}
		return nil
	}
}

// handleExec executes requests through renum.Handle, the library's public
// surface and the server's only way in.
func handleExec(h *renum.Handle, dict *renum.Dict) (func(r *request) error, error) {
	row := make(renum.Tuple, len(h.Head()))
	smp, err := h.Sampler()
	if err != nil {
		return nil, err
	}
	cont, err := h.Container()
	if err != nil {
		return nil, err
	}
	up, _ := h.Updater() // static handles have none and get no updates
	var perm *renum.Permutation
	intern := func(cells []string) renum.Tuple { return internCells(dict, cells) }
	return func(r *request) error {
		switch r.kind {
		case kAccess:
			return h.AccessInto(r.j, row)
		case kCount:
			_ = h.Count()
		case kBatch, kBatchWire:
			_, err := h.AccessBatch(r.js)
			return err
		case kPage:
			_, err := h.Page(r.j, r.n)
			return err
		case kSample:
			_, err := smp.SampleN(r.n, rand.New(rand.NewSource(r.j)))
			return err
		case kEnumNext:
			if perm == nil {
				p, err := h.Permute(rand.New(rand.NewSource(1)))
				if err != nil {
					return err
				}
				perm = p
			}
			if ts := perm.NextN(r.n); int64(len(ts)) < r.n {
				perm = nil
			}
		case kContains:
			if !cont.Contains(intern(r.cells)) {
				return fmt.Errorf("%v not contained", r.cells)
			}
		case kUpdate:
			var err error
			if r.op == "insert" {
				_, err = up.Insert(r.rel, intern(r.cells))
			} else {
				_, err = up.Delete(r.rel, intern(r.cells))
			}
			return err
		default:
			return fmt.Errorf("no handle form of %s", r.kind)
		}
		return nil
	}, nil
}

// ------------------------------------------------------ request/reply rungs

// exchangeExec executes requests as HTTP exchanges through ex, keeping the
// rung's own enumeration cursor. Every checkGap-th reply goes to chk when
// there is one.
func exchangeExec(ex exchanger, salt string, chk checker) func(r *request) error {
	var wire, cursor []byte
	var n int64
	return func(r *request) error {
		r = salted(r, salt)
		if r.kind == kEnumNext && cursor == nil {
			c, err := openCursor(ex, 1)
			if err != nil {
				return err
			}
			cursor = c
		}
		wire = r.appendHTTP(wire[:0], cursor)
		status, body, err := ex(wire)
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("status %d: %s", status, clip(body))
		}
		if r.kind == kEnumNext && cursorDone(body) {
			cursor = nil
			return nil
		}
		if n++; chk != nil && n%checkGap == 0 && r.kind != kEnumNext {
			return chk.check(r, status, body)
		}
		return nil
	}
}

// openCursor starts a seeded random-order cursor and returns its id.
func openCursor(ex exchanger, seed int64) ([]byte, error) {
	status, body, err := ex(simpleRequest("POST", fmt.Sprintf("/v1/%s/enum/start?order=random&seed=%d", queryName, seed)))
	if err != nil {
		return nil, err
	}
	var reply struct {
		Cursor string `json:"cursor"`
	}
	if status != 200 || json.Unmarshal(body, &reply) != nil || reply.Cursor == "" {
		return nil, fmt.Errorf("enum/start: status %d: %s", status, clip(body))
	}
	return []byte(reply.Cursor), nil
}

// handlerExchanger serves request bytes through an http.Handler in-process:
// parse, route, look up, probe, encode — everything but the socket.
func handlerExchanger(h http.Handler) exchanger {
	var rw replyRecorder
	return func(req []byte) (int, []byte, error) {
		hr, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(req)))
		if err != nil {
			return 0, nil, err
		}
		rw.reset()
		h.ServeHTTP(&rw, hr)
		return rw.status, rw.body, nil
	}
}

type replyRecorder struct {
	header http.Header
	status int
	body   []byte
}

func (r *replyRecorder) reset() {
	r.header, r.status, r.body = make(http.Header, 4), 200, r.body[:0]
}
func (r *replyRecorder) Header() http.Header  { return r.header }
func (r *replyRecorder) WriteHeader(code int) { r.status = code }
func (r *replyRecorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// socketExchanger talks to addr over one persistent connection.
func socketExchanger(c *client, addr string) exchanger {
	return func(req []byte) (int, []byte, error) { return c.do(addr, req) }
}

// inprocServers is one server.Server behind both connection loops, on
// loopback, with coalescing off — the transport alone, without the flag
// defaults renumd adds.
type inprocServers struct {
	srv      *server.Server
	fast     *server.FastServer
	std      *http.Server
	fastAddr string
	stdAddr  string
}

func startInproc(reg *server.Registry, snapshotDir string) (*inprocServers, error) {
	s := &inprocServers{srv: server.New(reg, server.Config{SnapshotDir: snapshotDir})}
	fastLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	stdLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fastLn.Close()
		return nil, err
	}
	s.fast, s.fastAddr = server.NewFastServer(s.srv), fastLn.Addr().String()
	s.std, s.stdAddr = &http.Server{Handler: s.srv.Handler()}, stdLn.Addr().String()
	go s.fast.Serve(fastLn)
	go s.std.Serve(stdLn)
	return s, nil
}

func (s *inprocServers) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	s.fast.Shutdown(ctx)
	s.std.Close()
	s.srv.Close()
}

// inprocRouter is a router.Router in this process over shard daemons, used
// for the allocation count only.
type inprocRouter struct {
	rt   *router.Router
	srv  *http.Server
	addr string
}

func startInprocRouter(shardURLs []string) (*inprocRouter, error) {
	rt := router.New(router.Config{Shards: shardURLs})
	<-rt.Start()
	if !rt.Ready() {
		rt.Close()
		return nil, fmt.Errorf("in-process router: shards not ready")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, err
	}
	r := &inprocRouter{rt: rt, srv: &http.Server{Handler: rt.Handler()}, addr: ln.Addr().String()}
	go r.srv.Serve(ln)
	return r, nil
}

func (r *inprocRouter) stop() {
	r.srv.Close()
	r.rt.Close()
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// staticIndex prepares the bare index rung on the tree the handle uses: the
// planner's pick, so that handle minus index is dispatch and nothing else.
func staticIndex(db *renum.Database, planned *renum.CQ) (*cqenum.CQ, error) {
	return cqenum.PrepareWithOptions(db, planned, reduceDefaults, access.BuildOptions{})
}

// ladder climbs the rungs and derives each layer's self time. The routed
// rung is climbed only by the workload that has a router.
func (l *layers) ladder(e *env, spec *serveSpec, ds *dataset, so *staticOracle, cat *renum.Catalog, snapDir, dir string, budget time.Duration) error {
	tg := l.targets[0]
	tr := spec.traffic(tg.h.Count(), ds)
	dict := l.db.Dict()
	climb := func(name, parent string, sample []request, budget time.Duration, exec func(*request) error) rungResult {
		r := replay(l.t, name, parent, sample, budget, exec)
		var err error
		if r.failed > 0 {
			err = fmt.Errorf("%d of %d requests failed: %s", r.failed, len(r.lat), r.err)
		}
		l.res.check(err, "ladder")
		return r
	}

	// The two library rungs, and the registry the in-process server rungs
	// share. The updatable workload gets updatable forms of each, every one
	// with state of its own; static rungs are checked against the oracle.
	var (
		chk        checker
		idxExec    func(*request) error
		handle     *renum.Handle
		reg        *server.Registry
		bootDaemon func() ([]*proc, error)
	)
	if spec.dynamic {
		idx, err := dynaccess.New(l.db, tg.cq)
		if err != nil {
			return err
		}
		idxExec = dynamicIndexExec(idx, dict)
		if handle, err = renum.Open(l.db, tg.cq, renum.WithDynamic()); err != nil {
			return err
		}
		db, _, err := loadDataset(ds)
		if err != nil {
			return err
		}
		reg = server.NewRegistry(db, server.CoalesceConfig{}, 0)
		if _, err := reg.Register(ds.program, true); err != nil {
			return err
		}
		daemonDir := filepath.Join(dir, "ladder-daemon")
		bootDaemon = func() ([]*proc, error) { return spec.boot(e, ds, daemonDir, true) }
	} else {
		idxExec, handle, chk = staticIndexExec(tg.bare, dict), tg.h, so
		var err error
		if reg, err = server.NewRegistryFromCatalog(cat, server.CoalesceConfig{}, 0); err != nil {
			return err
		}
		bootDaemon = func() ([]*proc, error) { return bootOne(e, "-snapshot-dir", snapDir) }
	}
	sample, err := makeSample(tr, l.seed, ladderSample, l.db, tg.h)
	if err != nil {
		return err
	}
	hExec, err := handleExec(handle, dict)
	if err != nil {
		return err
	}
	outer := "renumd"
	if l.runs("router.rtt_us") {
		outer = "router"
	}
	index := climb("access.index", "renum.handle", sample, budget, idxExec)
	viaHandle := climb("renum.handle", "server.handler", sample, budget, hExec)

	ip, err := startInproc(reg, "")
	if err != nil {
		return err
	}
	var c client
	handler := climb("server.handler", "server.fastloop", sample, budget, exchangeExec(handlerExchanger(ip.srv.Handler()), "h_", chk))
	m0 := mallocs()
	fast := climb("server.fastloop", "renumd", sample, budget, exchangeExec(socketExchanger(&c, ip.fastAddr), "f_", chk))
	l.set("server.allocs_per_req", float64(mallocs()-m0)/float64(len(fast.lat)), int64(len(fast.lat)))
	floorSample := make([]request, len(sample))
	for i := range floorSample {
		floorSample[i].kind = kHealthz
	}
	floor := climb("server.floor", "", floorSample, budget, exchangeExec(socketExchanger(&c, ip.fastAddr), "", nil))
	c.close()
	std := climb("server.stdmux", "", sample, budget, exchangeExec(socketExchanger(&c, ip.stdAddr), "s_", chk))
	c.close()
	ip.stop()

	// The shipped binary at its shipped flags.
	t0 := time.Now()
	procs, err := bootDaemon()
	if err != nil {
		return err
	}
	l.set("renumd.boot_ready_ms", ms(time.Since(t0)), 1)
	daemon := procs[0]
	before, _ := readProcStat(daemon.pid())
	scraped, err := scrapeMetrics(daemon.addr)
	if err != nil {
		killAll(procs)
		return err
	}
	parent := ""
	if outer == "router" {
		parent = outer
	}
	renumd := climb("renumd", parent, sample, budget, exchangeExec(socketExchanger(&c, daemon.addr), "", chk))
	c.close()
	after, _ := readProcStat(daemon.pid())
	rescraped, err := scrapeMetrics(daemon.addr)
	killAll(procs)
	if err != nil {
		return err
	}
	n := float64(len(renumd.lat))
	l.set("renumd.cpu_us_per_req", float64(after.cpu-before.cpu)/1e3/n, int64(n))
	l.set("renumd.ctxsw_per_req", float64(after.ctxsw-before.ctxsw)/n, int64(n))
	// Probes served per coalescer round; 1 when nothing was merged (or, on
	// an updatable entry, nothing went through the coalescer at all).
	ratio := 1.0
	if rounds := rescraped.delta(scraped, "renum_coalescer_rounds_total", ""); rounds > 0 {
		ratio = rescraped.delta(scraped, "renum_coalescer_served_total", "") / rounds
	}
	l.set("server.coalesce_merge_ratio", ratio, int64(n))
	l.set("server.scraped_p50_us", 1e6*rescraped.histQuantile(scraped, "renum_http_request_duration_seconds", "", 0.5), int64(n))

	// Medians, and self time = rung - the rung inside it.
	med := rungResult.median
	for _, m := range []struct {
		name string
		v    float64
		n    int
	}{
		{"access.call_us", med(index), len(index.lat)},
		{"handle.call_us", med(viaHandle), len(viaHandle.lat)},
		{"server.handler_us", med(handler), len(handler.lat)},
		{"server.fastloop_rtt_us", med(fast), len(fast.lat)},
		{"server.stdmux_rtt_us", med(std), len(std.lat)},
		{"server.floor_rtt_us", med(floor), len(floor.lat)},
		{"renumd.rtt_us", med(renumd), len(renumd.lat)},
		{"handle.self_us", med(viaHandle) - med(index), len(viaHandle.lat)},
		{"server.handler_self_us", med(handler) - med(viaHandle), len(handler.lat)},
		{"server.transport_self_us", med(fast) - med(handler), len(fast.lat)},
		{"renumd.config_self_us", med(renumd) - med(fast), len(renumd.lat)},
	} {
		l.set(m.name, m.v, int64(m.n))
	}
	if outer != "router" {
		return nil
	}

	// Two shard daemons and the router in front.
	if procs, err = bootRouted(e, snapDir, 2); err != nil {
		return err
	}
	defer func() { killAll(procs) }()
	rt := procs[len(procs)-1]
	before, _ = readProcStat(rt.pid())
	if scraped, err = scrapeMetrics(rt.addr); err != nil {
		return err
	}
	router := climb("router", "", sample, budget, exchangeExec(socketExchanger(&c, rt.addr), "", so))
	c.close()
	after, _ = readProcStat(rt.pid())
	if rescraped, err = scrapeMetrics(rt.addr); err != nil {
		return err
	}
	n = float64(len(router.lat))
	l.set("router.rtt_us", med(router), int64(n))
	l.set("router.hop_self_us", med(router)-med(renumd), int64(n))
	l.set("router.cpu_us_per_req", float64(after.cpu-before.cpu)/1e3/n, int64(n))
	perShard := rescraped.series(scraped, "renum_shard_requests_total")
	var total, most float64
	for _, v := range perShard {
		total += v
		most = max(most, v)
	}
	if total == 0 {
		return fmt.Errorf("the router reports no shard requests")
	}
	l.set("router.fanout_mean", total/n, int64(n))
	l.set("router.shard_skew", most/(total/float64(len(perShard))), int64(total))

	// The router again, in this process, for its allocation count (a
	// subprocess's heap cannot be read).
	var urls []string
	for _, p := range procs[:len(procs)-1] {
		urls = append(urls, "http://"+p.addr)
	}
	ir, err := startInprocRouter(urls)
	if err != nil {
		return err
	}
	defer ir.stop()
	m0 = mallocs()
	inproc := climb("router.inproc", "", sample, budget/2, exchangeExec(socketExchanger(&c, ir.addr), "", so))
	c.close()
	l.set("router.allocs_per_req", float64(mallocs()-m0)/float64(len(inproc.lat)), int64(len(inproc.lat)))
	return nil
}
