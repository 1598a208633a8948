package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/tpchq"
	"repro/internal/wal"
)

// The traced run of a workload. It generates the workload's inputs, runs on
// them the layer studies of the layers the workload exercises (and, on a
// socket workload, the layer ladder), and measures what tracing costs by
// running the workload's own loop untraced and traced. The time given with
// -seconds is shared out over the measured phases.

const (
	ladderSample   = 4000    // requests replayed at every rung
	enumLimit      = 200_000 // answers per enumeration study and query
	openLoopRate   = 2000    // req/s of the generator's open-loop probe
	compactUpdates = 500     // updates folded by the timed compaction
)

// traceRun is the traced run of workload name; spec is nil for paper_tpch.
func traceRun(e *env, name string, spec *serveSpec, o options) (*result, error) {
	res := newResult(name)
	t := newTracer()
	dir, err := e.tempDir(name + "-trace")
	if err != nil {
		return nil, err
	}
	defer e.removeDir(dir)
	l := &layers{res: res, t: t, seed: o.seed}
	if spec == nil {
		err = l.tracePaper(o)
	} else {
		err = l.traceServe(e, spec, dir, o)
	}
	if err != nil {
		return nil, err
	}
	path, err := t.write(e, name)
	if err != nil {
		return nil, err
	}
	res.notef("%d spans written to %s", len(t.spans), path)
	for _, m := range perLayer {
		v, measured := res.layer[m.Name]
		switch {
		case m.on(name) && (!measured || !finite(v.V)):
			res.check(fmt.Errorf("not measured"), "per-layer metric "+m.Name)
		case !m.on(name) && measured:
			res.check(fmt.Errorf("measured on a workload spec.go does not list"), "per-layer metric "+m.Name)
		}
	}
	return res, nil
}

// phases notes how long each phase of a traced run took.
func (l *layers) phases() func(name string) {
	start := time.Now()
	return func(name string) {
		l.res.notef("phase %-28s %6.2f s", name, time.Since(start).Seconds())
		start = time.Now()
	}
}

// tracePaper is paper_tpch's traced run: the index, enumeration and union
// layers on the paper's own queries, in-process.
func (l *layers) tracePaper(o options) error {
	phase := l.phases()
	d, err := l.timed("inputs.generate", func() (err error) {
		l.db, err = generatePaper(o)
		return err
	})
	if err != nil {
		return err
	}
	l.set("inputs.generate_ms", ms(d), int64(l.db.Size()))
	for _, q := range tpchq.CQs() {
		l.targets = append(l.targets, &target{cq: q})
	}
	phase("inputs")
	if err := l.build(); err != nil {
		return err
	}
	if err := l.probes(); err != nil {
		return err
	}
	if err := l.enumeration(enumLimit); err != nil {
		return err
	}
	l.ewBaseline(enumLimit)
	phase("build, probes, enumeration")
	if err := l.unions(tpchq.UCQs(), enumLimit); err != nil {
		return err
	}
	phase("unions")

	// What tracing adds to the workload's own loop: the experiment untraced,
	// traced, traced, untraced, so that warming caches favour neither side.
	st, _, err := openPaper(l.db)
	if err != nil {
		return err
	}
	var answers [2]float64
	var elapsed [2]time.Duration
	for i, traced := range []int{0, 1, 1, 0} {
		var t *tracer
		if traced == 1 {
			t = l.t
		}
		t0 := time.Now()
		rep, err := runPaperRep(st, o.seed*1000+int64(i), t)
		if err != nil {
			return err
		}
		elapsed[traced] += time.Since(t0)
		answers[traced] += float64(rep.probes + rep.renumAnswers + rep.ucqAnswers)
	}
	l.set("trace.overhead_share", 1-(answers[1]/elapsed[1].Seconds())/(answers[0]/elapsed[0].Seconds()), 4)
	phase("overhead repetitions")
	return nil
}

// traceServe is a socket workload's traced run.
func (l *layers) traceServe(e *env, spec *serveSpec, dir string, o options) error {
	phase := l.phases()
	var ds *dataset
	d, err := l.timed("inputs.generate", func() (err error) {
		ds, err = spec.gen(dir, o.seed, o.scaled(spec.tuples))
		return err
	})
	if err != nil {
		return err
	}
	l.set("inputs.generate_ms", ms(d), int64(ds.tuples))
	var q renum.Query
	if d, err = l.timed("load.csv", func() (err error) {
		l.db, q, err = loadDataset(ds)
		return err
	}); err != nil {
		return err
	}
	l.set("load.csv_ms", ms(d), int64(ds.tuples))
	tg := &target{cq: q.(*renum.CQ)}
	l.targets = []*target{tg}
	phase("inputs and load")

	if err := l.build(); err != nil {
		return err
	}
	if l.runs("access.probe_ns") {
		if err := l.probes(); err != nil {
			return err
		}
	}
	if l.runs("cqenum.delay_p50_ns") {
		if err := l.enumeration(enumLimit); err != nil {
			return err
		}
	}
	so, err := newStaticOracle(l.db, tg.h)
	if err != nil {
		return err
	}
	if l.runs("wire.parse_ns_per_answer") {
		if err := l.wires(so); err != nil {
			return err
		}
	}
	snapDir, cat, err := l.snapshots(dir)
	if err != nil {
		return err
	}
	defer cat.Close()
	if l.runs("shard.locate_ns") {
		if err := l.shards(); err != nil {
			return err
		}
	}
	phase("index, encodings, snapshot")
	if spec.dynamic {
		if err := l.dynamics(); err != nil {
			return err
		}
		if err := l.wals(dir); err != nil {
			return err
		}
		if err := l.updatableServer(dir, ds); err != nil {
			return err
		}
		phase("dynaccess, wal, compaction")
	}

	if err := l.ladder(e, spec, ds, so, cat, snapDir, dir, o.share(0.12)); err != nil {
		return err
	}
	phase("ladder")
	if l.runs("gen.late_p50_us") {
		if err := l.openLoopProbe(o.share(0.2)); err != nil {
			return err
		}
		phase("open-loop probe")
	}
	if err := l.serveOverhead(e, spec, ds, so, snapDir, o, o.share(0.3)); err != nil {
		return err
	}
	phase("overhead windows")
	return nil
}

// updatableServer times the serving tier's write path in-process, on a
// registry with an updatable entry and a WAL attached (fsync per record,
// like the shipped default): the update handler, and a compaction with
// reads running beside it.
func (l *layers) updatableServer(dir string, ds *dataset) error {
	db, _, err := loadDataset(ds)
	if err != nil {
		return err
	}
	reg := server.NewRegistry(db, server.CoalesceConfig{}, 0)
	if _, err := reg.Register(ds.program, true); err != nil {
		return err
	}
	walDir, snapDir := filepath.Join(dir, "inproc-wal"), filepath.Join(dir, "inproc-snap")
	for _, d := range []string{walDir, snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	if _, _, err := reg.AttachWAL(walDir, wal.SyncAlways); err != nil {
		return err
	}
	defer reg.CloseWAL()
	srv := server.New(reg, server.Config{SnapshotDir: snapDir})
	defer srv.Close()
	ex := handlerExchanger(srv.Handler())

	fresh, err := l.freshTuples(compactUpdates)
	if err != nil {
		return err
	}
	updates := make([]request, len(fresh))
	for i, t := range fresh {
		updates[i] = request{kind: kUpdate, op: "insert", rel: "r", cells: l.cells(t)}
	}
	up := replay(l.t, "server.update_handler", "", updates, time.Minute, exchangeExec(ex, "", nil))
	if up.failed > 0 {
		return fmt.Errorf("%s", up.err)
	}
	l.set("server.update_handler_us", up.median(), int64(len(up.lat)))

	// Reads beside the compaction: one reader probes through the handler
	// until the compaction has returned.
	e, _ := reg.Lookup(queryName)
	count := e.Count()
	stop := make(chan struct{})
	var reads []rec
	var wg sync.WaitGroup
	wg.Add(1)
	origin := time.Now()
	go func() {
		defer wg.Done()
		readEx := handlerExchanger(srv.Handler())
		rng := rand.New(rand.NewSource(l.seed))
		var wire []byte
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := request{kind: kAccess, j: rng.Int63n(count)}
			wire = r.appendHTTP(wire[:0], nil)
			t0 := time.Now()
			status, _, _ := readEx(wire)
			end := time.Now()
			reads = append(reads, rec{end: int64(end.Sub(origin)), lat: int64(end.Sub(t0)), ok: status == 200})
		}
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	d, err := l.timed("server.compact", func() error {
		_, _, err := reg.Compact(snapDir)
		return err
	})
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	var during []float64
	lo, hi := int64(start.Sub(origin)), int64(start.Add(d).Sub(origin))
	for _, r := range reads {
		if !r.ok {
			return fmt.Errorf("a read failed beside the compaction")
		}
		if r.end >= lo && r.end <= hi {
			during = append(during, float64(r.lat)/1e3)
		}
	}
	if len(during) == 0 {
		return fmt.Errorf("no read completed inside the %v compaction", d)
	}
	l.set("server.compact_ms", ms(d), compactUpdates)
	l.set("server.compact_read_stall_p99_us", quantile(sortedCopy(during), 0.99), int64(len(during)))
	return nil
}

// openLoopProbe puts the generator's own behaviour on record: a sleep-paced
// open loop at 2000 req/s against an in-process null endpoint, each request
// timed from the instant it was due. How late the generator runs is how much
// an open-loop latency would be about the generator rather than the server.
func (l *layers) openLoopProbe(length time.Duration) error {
	reg := server.NewRegistry(renum.NewDatabase(), server.CoalesceConfig{}, 0)
	ip, err := startInproc(reg, "")
	if err != nil {
		return err
	}
	defer ip.stop()
	var c client
	defer c.close()
	ex := socketExchanger(&c, ip.fastAddr)
	req := (&request{kind: kHealthz}).appendHTTP(nil, nil)
	if _, _, err := ex(req); err != nil {
		return err
	}
	interval := time.Second / openLoopRate
	n := int(length / interval)
	late := make([]float64, 0, n)
	before, _ := readProcStat(os.Getpid())
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		if _, _, err := ex(req); err != nil {
			return err
		}
		l.t.span("gen.open_loop", "", due, time.Now(), uint64(i))
		late = append(late, float64(sent.Sub(due))/1e3)
	}
	after, _ := readProcStat(os.Getpid())
	lateSorted := sortedCopy(late)
	l.set("gen.late_p50_us", quantile(lateSorted, 0.50), int64(n))
	l.set("gen.late_p99_us", quantile(lateSorted, 0.99), int64(n))
	// This process is generator and null server at once; both sides of a
	// /healthz exchange are the floor of what a request costs to generate.
	l.set("gen.cpu_us_per_req", float64(after.cpu-before.cpu)/1e3/float64(n), int64(n))
	return nil
}

// serveOverhead runs the workload's own closed loop on its own deployment,
// alternately untraced and traced, and reports the share of throughput
// tracing costs.
func (l *layers) serveOverhead(e *env, spec *serveSpec, ds *dataset, so *staticOracle, snapDir string, o options, length time.Duration) error {
	dir, err := e.tempDir(spec.name)
	if err != nil {
		return err
	}
	h := l.targets[0].h
	s := &session{e: e, spec: spec, dir: dir, ds: ds, inserted: new(sync.Map), db: l.db, static: h, h: h, so: so}
	defer s.close()
	// A deployment that boots from a snapshot boots from the one the suite
	// has saved: compiling it a second time would measure nothing new.
	if spec.bootSnapshot != nil {
		s.procs, err = spec.bootSnapshot(e, snapDir)
	} else {
		s.procs, err = spec.boot(e, ds, dir, true)
	}
	if err != nil {
		return err
	}
	if spec.dynamic {
		if s.dyn, err = newDynamicOracle(l.db, h, s.inserted); err != nil {
			return err
		}
	}
	s.tr = spec.traffic(h.Count(), ds)
	// Untraced, traced, traced, untraced: a daemon still warming up (pages
	// of a mapped snapshot faulting in) then favours neither side.
	var reqs [2]float64
	var p99, updateP99 []float64 // of the untraced windows
	var requests, updates int64
	filter := classify(allKinds)
	if spec.dynamic {
		filter = readsOnly
	}
	for i, traced := range []int{0, 1, 1, 0} {
		w := s.newWindow(o.seed, length/4, 100*i)
		if traced == 1 {
			w.tracer = l.t
		}
		if err := w.run(); err != nil {
			return fmt.Errorf("%w\n%s", err, s.front().logText())
		}
		l.res.absorb(w)
		reqs[traced] += w.stats(allKinds).reqPerS.V
		if traced == 0 {
			st := w.stats(filter)
			p99, requests = append(p99, st.p99.V), requests+st.p99.N
			if spec.dynamic {
				up := w.stats(updatesOnly)
				updateP99, updates = append(updateP99, up.p99.V), updates+up.p99.N
			}
		}
	}
	l.set("trace.overhead_share", 1-reqs[1]/reqs[0], 4)
	l.set("renumd.lat_p99_us", medianUnsorted(p99), requests)
	if spec.dynamic {
		l.set("renumd.update_p99_us", medianUnsorted(updateP99), updates)
	}
	return nil
}
