package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/load"
)

// options are one run's arguments.
type options struct {
	seed    int64
	seconds float64
	scale   float64 // multiplies every dataset size; 1 is the recorded configuration
	trace   bool
	tamper  func(body []byte) // test hook, see window.tamper
}

func (o options) window() time.Duration { return o.share(1) }

// share is a fraction of the -seconds budget.
func (o options) share(f float64) time.Duration {
	return time.Duration(o.seconds * f * float64(time.Second))
}

func (o options) scaled(n int) int {
	if s := int(float64(n) * o.scale); s > 16 {
		return s
	}
	return 16
}

// result is what one workload run reports.
type result struct {
	workload  string
	e2e       map[string]value
	layer     map[string]value
	attempted int64
	failed    int64
	errs      []string
	notes     []string
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: make(map[string]value), layer: make(map[string]value)}
}

func (r *result) check(err error, what string) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, what+": "+err.Error())
		}
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// serveSpec is one socket workload: a dataset, a deployment of renumd
// processes, and a traffic mix.
type serveSpec struct {
	name    string
	dynamic bool
	tuples  int // per relation at scale 1
	gen     func(dir string, seed int64, tuplesPerRelation int) (*dataset, error)
	// boot starts the deployment's daemons in order and returns them, the
	// one clients talk to last. first is false when the updatable daemon
	// reboots after SIGKILL.
	boot func(e *env, ds *dataset, dir string, first bool) ([]*proc, error)
	// bootSnapshot, on deployments that boot from a compiled snapshot,
	// boots one from a snapshot directory that already exists.
	bootSnapshot func(e *env, snapDir string) ([]*proc, error)
	traffic      func(count int64, ds *dataset) *traffic
}

var serveSpecs = map[string]*serveSpec{
	wPoint: {
		name: wPoint, tuples: 20_000, gen: genStar,
		boot: func(e *env, ds *dataset, dir string, first bool) ([]*proc, error) {
			return bootOne(e, tableArgs(ds)...)
		},
		traffic: func(count int64, ds *dataset) *traffic {
			return &traffic{count: count, mix: []mixEntry{{kAccess, 80}, {kCount, 20}}}
		},
	},
	wBulk: {
		name: wBulk, tuples: 500_000, gen: genTwoPath,
		boot: func(e *env, ds *dataset, dir string, first bool) ([]*proc, error) {
			snapDir, err := buildSnapshot(e, ds, dir)
			if err != nil {
				return nil, err
			}
			return bootOne(e, "-snapshot-dir", snapDir)
		},
		bootSnapshot: func(e *env, snapDir string) ([]*proc, error) { return bootOne(e, "-snapshot-dir", snapDir) },
		traffic: func(count int64, ds *dataset) *traffic {
			return &traffic{count: count, batch: 64, pageLimit: 100, sampleK: 64, enumN: 256,
				mix: []mixEntry{{kBatch, 30}, {kBatchWire, 20}, {kPage, 20}, {kSample, 15}, {kEnumNext, 15}}}
		},
	},
	wUpdate: {
		name: wUpdate, dynamic: true, tuples: 100_000, gen: genTwoPath,
		boot: func(e *env, ds *dataset, dir string, first bool) ([]*proc, error) {
			args := []string{"-dynamic", "-wal-dir", filepath.Join(dir, "wal"), "-snapshot-dir", filepath.Join(dir, "snap")}
			if !first {
				// Crash recovery pairs the newest snapshot with its WAL
				// segment; re-registering the CSVs on top would move the
				// generation away from the segment (cmd/renumd's doc).
				return bootOne(e, args...)
			}
			procs, err := bootOne(e, append(args, tableArgs(ds)...)...)
			if err != nil {
				return nil, err
			}
			// A first snapshot, so that a crash before the first compaction
			// has something to recover from.
			var c client
			defer c.close()
			status, body, err := c.do(procs[0].addr, simpleRequest("POST", "/admin/save"))
			if err != nil || status != 200 {
				return nil, fmt.Errorf("admin/save: status %d, %v: %s", status, err, clip(body))
			}
			return procs, nil
		},
		traffic: func(count int64, ds *dataset) *traffic {
			return &traffic{count: count, sampleK: 16, keys: twoPathKeys(ds.tuples / 2),
				mix: []mixEntry{{kUpdate, 10}, {kAccess, 60}, {kSample, 20}, {kContains, 10}}}
		},
	},
	wRoute: {
		name: wRoute, tuples: 500_000, gen: genTwoPath,
		boot: func(e *env, ds *dataset, dir string, first bool) ([]*proc, error) {
			snapDir, err := buildSnapshot(e, ds, dir)
			if err != nil {
				return nil, err
			}
			return bootRouted(e, snapDir, 2)
		},
		bootSnapshot: func(e *env, snapDir string) ([]*proc, error) { return bootRouted(e, snapDir, 2) },
		traffic: func(count int64, ds *dataset) *traffic {
			return &traffic{count: count, batch: 64, pageLimit: 100, enumN: 256,
				mix: []mixEntry{{kAccess, 40}, {kBatch, 30}, {kPage, 20}, {kEnumNext, 10}}}
		},
	},
}

func tableArgs(ds *dataset) []string {
	var args []string
	for _, t := range ds.tables {
		args = append(args, "-table", t)
	}
	return append(args, "-query", ds.program)
}

const (
	readyTimeout = 60 * time.Second
	// Set-up and recovery are repeated and their median reported: a tenth
	// of a second of process start-up, timed once, is mostly scheduling
	// noise, and one stalled write can add a second to a multi-second
	// set-up. Set-up is repeated at least minSetupReps times and while
	// repetitions fit in setupShare of the window, recovery at least
	// minRecoverReps times and while they fit in recoverShare of it.
	minSetupReps   = 3
	setupShare     = 0.15
	minRecoverReps = 5
	recoverShare   = 0.2
)

func bootOne(e *env, args ...string) ([]*proc, error) {
	p, err := e.startDaemon(args...)
	if err != nil {
		return nil, err
	}
	if err := p.waitReady(readyTimeout); err != nil {
		return nil, err
	}
	return []*proc{p}, nil
}

// buildSnapshot compiles the dataset with `renum build` into a snapshot
// directory renumd can boot from, so set-up exercises save and restore.
func buildSnapshot(e *env, ds *dataset, dir string) (string, error) {
	snapDir := filepath.Join(dir, "snap")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return "", err
	}
	args := append([]string{"build"}, tableArgs(ds)...)
	args = append(args, "-o", load.SnapshotPath(snapDir, 0))
	if out, err := exec.Command(e.renum(), args...).CombinedOutput(); err != nil {
		return "", fmt.Errorf("renum build: %v\n%s", err, out)
	}
	return snapDir, nil
}

// bootRouted starts k shard daemons over one snapshot and a router in front
// of them. The shards must be ready first: the router scrapes them once at
// boot and then only every -shard-refresh (2 s by default).
func bootRouted(e *env, snapDir string, k int) ([]*proc, error) {
	var procs []*proc
	routerArgs := []string{"-router"}
	for i := 0; i < k; i++ {
		p, err := e.startDaemon("-snapshot-dir", snapDir, "-shard-slice", fmt.Sprintf("%d/%d", i, k))
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
		routerArgs = append(routerArgs, "-shard", "http://"+p.addr)
	}
	for _, p := range procs {
		if err := p.waitReady(readyTimeout); err != nil {
			return nil, err
		}
	}
	router, err := e.startDaemon(routerArgs...)
	if err != nil {
		return nil, err
	}
	if err := router.waitReady(readyTimeout); err != nil {
		return nil, err
	}
	return append(procs, router), nil
}

func killAll(procs []*proc) {
	for _, p := range procs {
		p.kill()
	}
}

// fetchCount asks a daemon for /count.
func fetchCount(addr string) (int64, error) {
	var c client
	defer c.close()
	status, body, err := c.do(addr, simpleRequest("GET", "/v1/"+queryName+"/count"))
	if err != nil {
		return 0, err
	}
	var reply struct {
		Count int64 `json:"count"`
	}
	if status != 200 || json.Unmarshal(body, &reply) != nil {
		return 0, fmt.Errorf("count: status %d: %s", status, clip(body))
	}
	return reply.Count, nil
}

// session is one deployed socket workload: its daemons, and the in-process
// oracle its replies are checked against.
type session struct {
	e     *env
	spec  *serveSpec
	dir   string
	ds    *dataset
	procs []*proc // the one clients talk to last
	setup value   // seconds from nothing to every daemon ready

	db       *renum.Database
	h        *renum.Handle // what the daemon serves: dynamic on the dynamic workload
	static   *renum.Handle // stable order: enumeration, inverted access
	tr       *traffic
	so       *staticOracle
	dyn      *dynamicOracle
	inserted *sync.Map
}

func (s *session) front() *proc { return s.procs[len(s.procs)-1] }

func (s *session) close() {
	killAll(s.procs)
	s.e.removeDir(s.dir)
}

// deploy generates the inputs and boots the daemons — the timed set-up —
// and then builds the oracle and checks the dataset guard.
func deploy(e *env, spec *serveSpec, o options, res *result) (*session, error) {
	dir, err := e.tempDir(spec.name)
	if err != nil {
		return nil, err
	}
	s := &session{e: e, spec: spec, dir: dir, inserted: new(sync.Map)}
	setups, err := repeated(minSetupReps, o.share(setupShare), func() (float64, error) {
		var err error
		if s.procs != nil {
			// Tear down completely: the next set-up starts from nothing.
			s.close()
			if s.dir, err = e.tempDir(spec.name); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if s.ds, err = spec.gen(s.dir, o.seed, o.scaled(spec.tuples)); err != nil {
			return 0, err
		}
		s.procs, err = spec.boot(e, s.ds, s.dir, true)
		return time.Since(t0).Seconds(), err
	})
	s.setup = medianOf(setups, int64(len(setups)))
	if err == nil {
		err = s.openOracle(res)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// openOracle builds the in-process side, outside the set-up interval: it is
// the benchmark's checker, not part of the system under test.
func (s *session) openOracle(res *result) (err error) {
	t0 := time.Now()
	var q renum.Query
	if s.db, q, err = loadDataset(s.ds); err != nil {
		return err
	}
	loaded := time.Since(t0)
	if s.static, err = renum.Open(s.db, q); err != nil {
		return err
	}
	s.h = s.static
	if s.spec.dynamic {
		if s.h, err = renum.Open(s.db, q, renum.WithDynamic()); err != nil {
			return err
		}
		if s.dyn, err = newDynamicOracle(s.db, s.static, s.inserted); err != nil {
			return err
		}
	}
	if s.so, err = newStaticOracle(s.db, s.static); err != nil {
		return err
	}
	res.notef("oracle: loaded %d tuples in %.2f s, %d answers", s.db.Size(), loaded.Seconds(), s.h.Count())

	// Dataset guard, before any traffic.
	if err := guardCount(s.h.Count()); err != nil {
		return err
	}
	served, err := fetchCount(s.front().addr)
	if err != nil {
		return err
	}
	if served != s.h.Count() {
		return fmt.Errorf("%w: daemon counts %d answers, the in-process oracle %d", errCountRange, served, s.h.Count())
	}
	s.tr = s.spec.traffic(s.h.Count(), s.ds)
	return nil
}

// newWindow prepares C closed-loop connections against the front daemon.
// firstID offsets the connections' generator ids, so that two windows of
// one session draw different requests (and insert different tuples).
func (s *session) newWindow(seed int64, length time.Duration, firstID int) *window {
	w := &window{addr: s.front().addr, t: s.tr, length: length}
	for i := 0; i < clientCount(); i++ {
		cn := &conn{gen: newGenerator(s.tr, seed, firstID+i, s.db, s.static, s.inserted), recs: make([]rec, 0, 1<<16)}
		if s.spec.dynamic {
			cn.chk = s.dyn.fork()
		} else {
			cn.chk = s.so.fork()
		}
		w.conns = append(w.conns, cn)
	}
	return w
}

// compaction is the /admin/compact call a dynamic window makes midway.
type compaction struct {
	start, end time.Time
	err        error
}

func (s *session) compactMidway(w *window) *compaction {
	c := new(compaction)
	w.midway = func() {
		var cl client
		defer cl.close()
		c.start = time.Now()
		status, body, err := cl.do(s.front().addr, simpleRequest("POST", "/admin/compact"))
		c.end = time.Now()
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %s", status, clip(body))
		}
		c.err = err
	}
	return c
}

func (res *result) absorb(w *window) {
	res.attempted += w.attempted.Load()
	res.failed += w.failed.Load()
	res.errs = append(res.errs, w.errs...)
}

// runServe runs one socket workload end to end.
func runServe(e *env, spec *serveSpec, o options) (*result, error) {
	res := newResult(spec.name)
	s, err := deploy(e, spec, o, res)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res.e2e["setup_s"] = s.setup
	res.check(checkBijection(s.static, o.seed, 10_000), "bijection")

	w := s.newWindow(o.seed, o.window(), 0)
	w.tamper = o.tamper
	var compact *compaction
	if spec.dynamic {
		compact = s.compactMidway(w)
	}
	before := make([]procStat, len(s.procs))
	for i, p := range s.procs {
		before[i], _ = readProcStat(p.pid())
	}
	if err := w.run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, s.front().logText())
	}
	res.absorb(w)

	filter := classify(allKinds)
	if spec.dynamic {
		filter = readsOnly
		up := w.stats(updatesOnly)
		res.e2e["update_p50_us"] = up.p50
		res.check(compact.err, "admin/compact")
		res.notef("compaction at the midpoint took %.0f ms; latency is of reads, update_p50_us of updates (their p99: %.0f us, n=%d)",
			ms(compact.end.Sub(compact.start)), up.p99.V, up.p99.N)
	}
	st := w.stats(filter)
	res.e2e["req_per_s"], res.e2e["answers_per_s"], res.e2e["lat_p50_us"] = st.reqPerS, st.answersPerS, st.p50
	res.notef("latency p99 %.0f us [%.0f .. %.0f] (a per-layer metric: it does not repeat well enough to gate)", st.p99.V, st.p99.Lo, st.p99.Hi)

	// Memory is the daemons' peak resident memory, summed.
	var peak, cpu float64
	for i, p := range s.procs {
		after, err := readProcStat(p.pid())
		if err != nil {
			return nil, err
		}
		peak += after.hwmMiB
		cpu += (after.cpu - before[i].cpu).Seconds()
	}
	res.e2e["mem_mb"] = single(peak, int64(len(s.procs)))
	res.notef("daemons: %.2f CPU-seconds over the %.0f s window and warm-up", cpu, o.seconds)
	if spec.dynamic {
		if err := s.crashAndRecover(o, res, w); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// crashAndRecover SIGKILLs the updatable daemon, boots it again from the
// snapshot and WAL on disk and times until it is ready — repeatedly, from
// the same on-disk state — then checks that no acknowledged update was lost.
func (s *session) crashAndRecover(o options, res *result, w *window) error {
	recover, err := repeated(minRecoverReps, o.share(recoverShare), func() (float64, error) {
		killAll(s.procs)
		t0 := time.Now()
		var err error
		s.procs, err = s.spec.boot(s.e, s.ds, s.dir, false)
		return time.Since(t0).Seconds(), err
	})
	if err != nil {
		return fmt.Errorf("reboot after SIGKILL: %w", err)
	}
	res.e2e["recover_s"] = medianOf(recover, int64(len(recover)))
	res.checkDurability(s.front().addr, s.ds, w)
	return nil
}

// checkDurability verifies, after SIGKILL and reboot, that no acknowledged
// update was lost: /count equals what an in-process dynamic index holds
// after the same acked updates, and up to 1000 of the latest acked inserts
// answer /contains the way their later fate says (true unless an acked
// delete removed them).
func (res *result) checkDurability(addr string, ds *dataset, w *window) {
	db, q, err := loadDataset(ds)
	if err != nil {
		res.check(err, "durability oracle")
		return
	}
	h, err := renum.Open(db, q, renum.WithDynamic())
	if err != nil {
		res.check(err, "durability oracle")
		return
	}
	up, err := h.Updater()
	if err != nil {
		res.check(err, "durability oracle")
		return
	}
	type fate struct {
		cells []string
		live  bool // inserted and not deleted again
	}
	fates := make(map[string]*fate)
	var order []string
	var acked int
	for _, cn := range w.conns {
		for _, a := range cn.acks {
			t := internCells(db.Dict(), a.cells)
			if a.op == "insert" {
				_, err = up.Insert("r", t)
				fates[a.cells[0]] = &fate{cells: a.cells, live: true}
				order = append(order, a.cells[0])
			} else {
				_, err = up.Delete("r", t)
				fates[a.cells[0]].live = false
			}
			if err != nil {
				res.check(err, "durability oracle")
				return
			}
			acked++
		}
	}
	got, err := fetchCount(addr)
	if err == nil && got != h.Count() {
		err = fmt.Errorf("count %d after recovery, want %d (%d acked updates)", got, h.Count(), acked)
	}
	res.check(err, "count after recovery")

	// A join partner for every probed insert: any s tuple with its key.
	s, err := db.Relation("s")
	if err != nil {
		res.check(err, "durability oracle")
		return
	}
	partner := make(map[string]string, s.Len())
	for i := 0; i < s.Len(); i++ {
		partner[db.Dict().String(s.At(i, 0))] = db.Dict().String(s.At(i, 1))
	}
	var c client
	defer c.close()
	probed := 0
	for i := len(order) - 1; i >= 0 && probed < 1000; i-- {
		f := fates[order[i]]
		cPartner, ok := partner[f.cells[1]]
		if !ok {
			continue // no s tuple joins: the insert contributes no answer
		}
		req := request{kind: kContains, cells: []string{f.cells[0], f.cells[1], cPartner}}
		status, body, err := c.do(addr, req.appendHTTP(nil, nil))
		want := []byte(fmt.Sprintf("{\"contains\":%v}\n", f.live))
		if err == nil && (status != 200 || !bytes.Equal(body, want)) {
			err = fmt.Errorf("contains %v: status %d: %s, want %s", req.cells, status, clip(body), want)
		}
		res.check(err, "acked insert after recovery")
		probed++
	}
	res.notef("recovery check: %d acked updates, %d inserts probed via /contains", acked, probed)
}
