package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/dynaccess"
	"repro/internal/load"
	"repro/internal/mcucq"
	"repro/internal/plan"
	"repro/internal/reduce"
	"repro/internal/sample"
	"repro/internal/shard"
	"repro/internal/shuffle"
	"repro/internal/unionenum"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The layer suite: the repository's modules timed from outside, by calling
// their public functions on the workload's own data. Each study runs on the
// workloads that exercise its layer (spec.go's On lists); spec.go also names
// the end-to-end metric each number is predicted to move.

var reduceDefaults = reduce.Options{}

// target is one query of the workload with what the suite builds for it.
type target struct {
	cq   *renum.CQ  // as parsed
	tree *renum.CQ  // the planner's pick: the tree the handle is built on
	bare *cqenum.CQ // the bare index on that tree
	h    *renum.Handle
}

// layers carries one traced run's data through the suite.
type layers struct {
	res  *result
	t    *tracer
	seed int64
	db   *renum.Database
	// targets are the workload's CQs: the paper's six on paper_tpch, the
	// served query on a socket workload.
	targets []*target
}

func (l *layers) set(name string, v float64, n int64) { l.res.layer[name] = single(v, n) }

// runs reports whether the workload measures the named per-layer metric.
func (l *layers) runs(metric string) bool {
	i := slices.IndexFunc(perLayer, func(m metricDef) bool { return m.Name == metric })
	return perLayer[i].on(l.res.workload)
}

// timed runs f once inside a span and returns how long it took.
func (l *layers) timed(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	l.t.span(name, "", start, end, 0)
	return end.Sub(start), err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// build times preprocessing stage by stage — plan search, reduction to a
// full join, index build — then the same through renum.Open, whose heap
// growth is the index's memory. Stage times are sums over the targets.
func (l *layers) build() error {
	var search, fulljoin, index time.Duration
	var candidates, indexed int64 // plans compared; tuples of the relations indexed
	for _, tg := range l.targets {
		var pl *plan.Plan
		d, err := l.timed("plan.search", func() (err error) {
			tg.tree, pl, err = plan.ChooseCQ(l.db, tg.cq, plan.ModeCost)
			return err
		})
		if err != nil {
			return err
		}
		search, candidates = search+d, candidates+int64(len(pl.Candidates))

		var fj *reduce.FullJoin
		if d, err = l.timed("reduce.fulljoin", func() (err error) {
			fj, err = reduce.BuildFullJoin(l.db, tg.tree, reduceDefaults)
			return err
		}); err != nil {
			return err
		}
		fulljoin += d

		var idx *access.Index
		if d, err = l.timed("access.build", func() (err error) {
			idx, err = access.NewWithOptions(fj, access.BuildOptions{})
			return err
		}); err != nil {
			return err
		}
		index += d
		tg.bare = cqenum.Restore(tg.tree, idx)
		for _, a := range tg.cq.Body {
			rel, err := l.db.Relation(a.Relation)
			if err != nil {
				return err
			}
			indexed += int64(rel.Len())
		}
	}
	// The handles are opened once the stage studies' garbage is gone, so
	// that the heap grows by what the handles keep.
	staged := heapAfterGC().HeapAlloc
	for _, tg := range l.targets {
		if _, err := l.timed("handle.open", func() (err error) {
			tg.h, err = renum.Open(l.db, tg.cq)
			return err
		}); err != nil {
			return err
		}
		if err := guardCount(tg.h.Count()); err != nil {
			return err
		}
	}
	grown := float64(heapAfterGC().HeapAlloc) - float64(staged)
	l.set("plan.search_ms", ms(search), candidates)
	l.set("reduce.fulljoin_ms", ms(fulljoin), int64(len(l.targets)))
	l.set("access.build_ms", ms(index), indexed)
	l.set("access.build_mtuples_per_s", float64(indexed)/1e6/index.Seconds(), indexed)
	l.set("mem.index_bytes_per_tuple", grown/float64(indexed), indexed)
	return nil
}

// perOp runs f over blocks of probeBlock operations, after one block of
// warm-up, and returns each block's time per operation in ns.
func perOp(blocks int, f func(i int)) []float64 {
	per := make([]float64, 0, blocks)
	for b := 0; b <= blocks; b++ {
		t0 := time.Now()
		for i := 0; i < probeBlock; i++ {
			f(i)
		}
		if b > 0 {
			per = append(per, float64(time.Since(t0))/probeBlock)
		}
	}
	return per
}

func medianUnsorted(vs []float64) float64 { return median(sortedCopy(vs)) }

// probes times the probe primitives on uniform positions: the bare index,
// its inverse, the batched form, and the same probe through the handle. The
// median is over the blocks of all targets.
func (l *layers) probes() error {
	const blocks = 16
	var probe, viaHandle, inverted, batch []float64
	start := time.Now()
	for _, tg := range l.targets {
		idx := tg.bare.Index
		n := idx.Count()
		rng := rand.New(rand.NewSource(l.seed))
		js := make([]int64, probeBlock)
		for i := range js {
			js[i] = rng.Int63n(n)
		}
		row := make(renum.Tuple, len(idx.Head()))
		var failed error
		probe = append(probe, perOp(blocks, func(i int) {
			if err := idx.AccessInto(js[i], row); err != nil {
				failed = err
			}
		})...)
		viaHandle = append(viaHandle, perOp(blocks, func(i int) {
			if err := tg.h.AccessInto(js[i], row); err != nil {
				failed = err
			}
		})...)
		answers := make([]renum.Tuple, len(js))
		for i, j := range js {
			if answers[i], failed = idx.Access(j); failed != nil {
				return failed
			}
		}
		inverted = append(inverted, perOp(blocks, func(i int) {
			if got, ok := idx.InvertedAccess(answers[i]); !ok || got != js[i] {
				failed = fmt.Errorf("InvertedAccess(Access(%d)) = %d, %v", js[i], got, ok)
			}
		})...)
		for b := 0; b < blocks; b++ {
			t0 := time.Now()
			if _, err := idx.AccessBatch(js, 0); err != nil {
				return err
			}
			batch = append(batch, float64(time.Since(t0))/float64(len(js)))
		}
		if failed != nil {
			return failed
		}
	}
	l.t.span("access.probes", "", start, time.Now(), 0)
	ops := int64(len(probe) * probeBlock)
	l.set("access.probe_ns", medianUnsorted(probe), ops)
	l.set("access.inverted_ns", medianUnsorted(inverted), ops)
	l.set("access.batch_ns_per_answer", medianUnsorted(batch), ops)
	l.set("handle.dispatch_ns", medianUnsorted(viaHandle)-medianUnsorted(probe), ops)
	return nil
}

// enumeration times REnum(CQ) answer by answer — the paper's delay figures —
// next to its two ingredients, the shuffle and the probe, so that what is
// left is the enumerator's own cost. Up to limit answers of every target.
func (l *layers) enumeration(limit int64) error {
	var delays []float64
	var shuffled time.Duration
	start := time.Now()
	for _, tg := range l.targets {
		n := min(limit, tg.bare.Count())
		sh := shuffle.New(tg.bare.Count(), rand.New(rand.NewSource(l.seed)))
		t0 := time.Now()
		for i := int64(0); i < n; i++ {
			sh.Next()
		}
		shuffled += time.Since(t0)

		p := tg.bare.Permute(rand.New(rand.NewSource(l.seed)))
		last := time.Now()
		for i := int64(0); i < n; i++ {
			if _, ok := p.Next(); !ok {
				return fmt.Errorf("random-order enumeration ended after %d of %d answers", i, tg.bare.Count())
			}
			now := time.Now()
			delays = append(delays, float64(now.Sub(last)))
			last = now
		}
	}
	l.t.span("cqenum.permute", "", start, time.Now(), 0)
	var sum float64
	for _, d := range delays {
		sum += d
	}
	sort.Float64s(delays)
	answers := int64(len(delays))
	shuffleNs := float64(shuffled) / float64(answers)
	l.set("shuffle.next_ns", shuffleNs, answers)
	l.set("cqenum.delay_p50_ns", quantile(delays, 0.50), answers)
	l.set("cqenum.delay_p99_ns", quantile(delays, 0.99), answers)
	l.set("cqenum.delay_max_us", delays[len(delays)-1]/1e3, answers)
	l.set("cqenum.self_ns", sum/float64(answers)-l.res.layer["access.probe_ns"].V-shuffleNs, answers)
	return nil
}

// ewBaseline drains the paper's baseline, Sample(EW) with duplicate
// elimination, to limit answers of every target. Where that is 90 % of the
// answer set — the point the paper's Figure 1 compares at — REnum(CQ) must
// not be slower.
func (l *layers) ewBaseline(limit int64) {
	var got int64
	var ew time.Duration
	start := time.Now()
	for _, tg := range l.targets {
		n := tg.bare.Count()
		want, full := limit, n*9/10 <= limit
		if full {
			want = n * 9 / 10
		}
		t0 := time.Now()
		s := sample.New(tg.bare.Index, sample.EW, rand.New(rand.NewSource(l.seed)))
		var drawn int64
		for drawn < want {
			if _, ok := s.Next(); !ok {
				break
			}
			drawn++
		}
		took := time.Since(t0)
		got, ew = got+drawn, ew+took
		if !full {
			continue
		}
		t0 = time.Now()
		p := tg.bare.Permute(rand.New(rand.NewSource(l.seed)))
		for i := int64(0); i < want; i++ {
			p.Next()
		}
		var err error
		if renumTime := time.Since(t0); renumTime > took {
			err = fmt.Errorf("REnum(CQ) took %v for 90%% of the answers, Sample(EW) %v", renumTime, took)
		}
		l.res.check(err, tg.cq.Name+": REnum(CQ) vs Sample(EW)")
	}
	l.t.span("sample.ew", "", start, time.Now(), 0)
	l.set("sample.ew_answers_per_s", float64(got)/ew.Seconds(), got)
}

// unions times both REnum(UCQ) algorithms on the paper's unions: the mc-UCQ
// structure (build, random access, enumeration) and Algorithm 5 with its
// rejections, up to limit answers of each union.
func (l *layers) unions(ucqs []*renum.UCQ, limit int64) error {
	var build, mcTime, a5Time time.Duration
	var accessNs, delays []float64
	var answers, rejections int64
	for _, u := range ucqs {
		var m *mcucq.MCUCQ
		d, err := l.timed("mcucq.build", func() (err error) {
			m, err = mcucq.New(l.db, u, mcucq.Options{})
			return err
		})
		if err != nil {
			return err
		}
		build += d
		n := m.Count()
		if err := guardCount(n); err != nil {
			return err
		}
		take := min(limit, n)

		start := time.Now()
		rng := rand.New(rand.NewSource(l.seed))
		var failed error
		accessNs = append(accessNs, perOp(4, func(int) {
			if _, err := m.Access(rng.Int63n(n)); err != nil {
				failed = err
			}
		})...)
		if failed != nil {
			return failed
		}
		p := m.Permute(rand.New(rand.NewSource(l.seed)))
		t0 := time.Now()
		for i := int64(0); i < take; i++ {
			if _, ok := p.Next(); !ok {
				return fmt.Errorf("mc-UCQ enumeration ended after %d of %d answers", i, n)
			}
		}
		mcTime += time.Since(t0)
		l.t.span("mcucq.enumerate", "", start, time.Now(), 0)

		// Algorithm 5 runs on the disjunct indexes the mc-UCQ already built.
		start = time.Now()
		sets := make([]unionenum.Set, len(u.Disjuncts))
		for i, d := range u.Disjuncts {
			sets[i] = cqenum.Restore(d, m.Indexes()[i]).NewDeletableSet()
		}
		e := unionenum.New(sets, rand.New(rand.NewSource(l.seed)))
		last := time.Now()
		t0 = last
		for i := int64(0); i < take; i++ {
			if _, ok := e.Next(); !ok {
				return fmt.Errorf("Algorithm 5 ended after %d of %d answers", i, n)
			}
			now := time.Now()
			delays = append(delays, float64(now.Sub(last)))
			last = now
		}
		a5Time += time.Since(t0)
		l.t.span("unionenum.enumerate", "", start, time.Now(), 0)
		answers, rejections = answers+take, rejections+e.Rejections
	}
	sort.Float64s(delays)
	l.set("mcucq.build_ms", ms(build), int64(len(ucqs)))
	l.set("mcucq.access_ns", medianUnsorted(accessNs), int64(len(accessNs)*probeBlock))
	l.set("mcucq.answers_per_s", float64(answers)/mcTime.Seconds(), answers)
	l.set("unionenum.answers_per_s", float64(answers)/a5Time.Seconds(), answers)
	l.set("unionenum.reject_share", float64(rejections)/float64(answers+rejections), answers+rejections)
	l.set("unionenum.delay_p99_ns", quantile(delays, 0.99), answers)
	return nil
}

// snapshots times persisting the served catalog and mapping it back, and
// leaves the snapshot directory for the daemons of the ladder to boot from.
func (l *layers) snapshots(dir string) (string, *renum.Catalog, error) {
	snapDir := filepath.Join(dir, "ladder-snap")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return "", nil, err
	}
	tg := l.targets[0]
	path := load.SnapshotPath(snapDir, 0)
	d, err := l.timed("snapshot.save", func() error {
		return renum.SaveSnapshot(path, l.db, 0, []renum.CatalogEntry{{Name: queryName, Q: tg.cq, H: tg.h}})
	})
	if err != nil {
		return "", nil, err
	}
	l.set("snapshot.save_ms", ms(d), 1)
	st, err := os.Stat(path)
	if err != nil {
		return "", nil, err
	}
	l.set("snapshot.bytes_per_tuple", float64(st.Size())/float64(l.db.Size()), int64(l.db.Size()))
	var cat *renum.Catalog
	d, err = l.timed("snapshot.restore", func() (err error) {
		if cat, err = renum.OpenSnapshot(path); err != nil {
			return err
		}
		_, err = cat.Entries()[0].H.Access(0)
		return err
	})
	if err != nil {
		return "", nil, err
	}
	l.set("snapshot.restore_ms", ms(d), 1)
	return snapDir, cat, nil
}

// shards times the in-process two-way partition: locating a position's
// shard, and a probe through the sharded set.
func (l *layers) shards() error {
	var set *shard.Set
	if _, err := l.timed("shard.build", func() (err error) {
		set, err = shard.Build(l.db, l.targets[0].tree, 2, reduceDefaults, access.BuildOptions{})
		return err
	}); err != nil {
		return err
	}
	n := set.Count()
	rng := rand.New(rand.NewSource(l.seed))
	row := make(renum.Tuple, len(set.Head()))
	var failed error
	start := time.Now()
	l.set("shard.locate_ns", medianUnsorted(perOp(4, func(int) {
		if _, _, err := set.Locate(rng.Int63n(n)); err != nil {
			failed = err
		}
	})), 4*probeBlock)
	l.set("shard.access_ns", medianUnsorted(perOp(4, func(int) {
		if err := set.AccessInto(rng.Int63n(n), row); err != nil {
			failed = err
		}
	})), 4*probeBlock)
	l.t.span("shard.probes", "", start, time.Now(), 0)
	return failed
}

// freshTuples derives n tuples that are not in r from its first rows, with
// new values in column a — the column no other atom shares, so the new
// tuples join exactly like the rows they copy.
func (l *layers) freshTuples(n int) ([]renum.Tuple, error) {
	rel, err := l.db.Relation("r")
	if err != nil {
		return nil, err
	}
	out := make([]renum.Tuple, n)
	for i := range out {
		out[i] = rel.Tuple(i % rel.Len())
		out[i][0] = l.db.Dict().Intern(fmt.Sprintf("fresh%d", i))
	}
	return out, nil
}

// dynamics times the updatable index: inserts, deletes and probes.
func (l *layers) dynamics() error {
	var idx *dynaccess.Index
	if _, err := l.timed("dynaccess.build", func() (err error) {
		idx, err = dynaccess.New(l.db, l.targets[0].cq)
		return err
	}); err != nil {
		return err
	}
	fresh, err := l.freshTuples(2 * probeBlock)
	if err != nil {
		return err
	}
	var failed error
	start := time.Now()
	// Block 0 (the warm-up) takes the first half of fresh, block 1 the second.
	l.set("dynaccess.insert_ns", perOp(1, func(i int) {
		if _, err := idx.Insert("r", fresh[i]); err != nil {
			failed = err
		}
		fresh[i], fresh[i+probeBlock] = fresh[i+probeBlock], fresh[i]
	})[0], probeBlock)
	l.set("dynaccess.delete_ns", perOp(1, func(i int) {
		if _, err := idx.Delete("r", fresh[i]); err != nil {
			failed = err
		}
		fresh[i], fresh[i+probeBlock] = fresh[i+probeBlock], fresh[i]
	})[0], probeBlock)
	n := idx.Count()
	rng := rand.New(rand.NewSource(l.seed))
	row := make(renum.Tuple, len(idx.Head()))
	l.set("dynaccess.probe_ns", medianUnsorted(perOp(4, func(int) {
		if err := idx.AccessInto(rng.Int63n(n), row); err != nil {
			failed = err
		}
	})), 4*probeBlock)
	l.t.span("dynaccess.ops", "", start, time.Now(), 0)
	return failed
}

// wals times the write-ahead log on records shaped like the workload's
// updates: appends without and with fsync, the bytes they take, and replay.
func (l *layers) wals(dir string) error {
	const buffered, synced = 2000, 300
	fresh, err := l.freshTuples(buffered)
	if err != nil {
		return err
	}
	recs := make([]wal.Record, len(fresh))
	for i, t := range fresh {
		recs[i] = wal.Record{Op: wal.OpInsert, Query: queryName, Relation: "r", Tuple: l.cells(t)}
	}
	appendAll := func(name string, policy wal.SyncPolicy, recs []wal.Record) (string, []float64, error) {
		path := filepath.Join(dir, name)
		log, err := wal.Create(path, policy)
		if err != nil {
			return "", nil, err
		}
		durs := make([]float64, len(recs))
		for i, rec := range recs {
			t0 := time.Now()
			if err := log.Append(rec); err != nil {
				log.Close()
				return "", nil, err
			}
			end := time.Now()
			l.t.span("wal.append."+name, "", t0, end, uint64(i))
			durs[i] = float64(end.Sub(t0)) / 1e3
		}
		sort.Float64s(durs)
		return path, durs, log.Close()
	}
	path, plain, err := appendAll("none.log", wal.SyncNone, recs)
	if err != nil {
		return err
	}
	_, fsynced, err := appendAll("always.log", wal.SyncAlways, recs[:synced])
	if err != nil {
		return err
	}
	appendUs := median(plain)
	l.set("wal.append_us", appendUs, buffered)
	l.set("wal.fsync_p50_us", quantile(fsynced, 0.50)-appendUs, synced)
	l.set("wal.fsync_p99_us", quantile(fsynced, 0.99)-appendUs, synced)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.set("wal.bytes_per_update", float64(st.Size())/buffered, buffered)
	var replayed []wal.Record
	d, err := l.timed("wal.replay", func() error {
		log, got, err := wal.Open(path, wal.SyncNone)
		if err != nil {
			return err
		}
		replayed = got
		return log.Close()
	})
	if err != nil {
		return err
	}
	if len(replayed) != buffered {
		return fmt.Errorf("wal replay returned %d of %d records", len(replayed), buffered)
	}
	l.set("wal.replay_ms_per_krec", ms(d)*1000/buffered, buffered)
	return nil
}

// cells renders a tuple the way requests and WAL records carry it.
func (l *layers) cells(t renum.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = l.db.Dict().String(v)
	}
	return out
}

// wires compares the two response encodings on one 64-answer batch.
func (l *layers) wires(o *staticOracle) error {
	r := request{kind: kBatchWire, js: make([]int64, 64)}
	rng := rand.New(rand.NewSource(l.seed))
	for i := range r.js {
		r.js[i] = rng.Int63n(o.count)
	}
	frame, err := o.expected(nil, &r)
	if err != nil {
		return err
	}
	r.kind = kBatch
	asJSON, err := o.expected(nil, &r)
	if err != nil {
		return err
	}
	rows := float64(len(r.js))
	var failed error
	start := time.Now()
	perFrame := perOp(1, func(int) {
		if _, err := wire.ParseFunc(frame, func(int, int, []byte) error { return nil }); err != nil {
			failed = err
		}
	})[0]
	l.t.span("wire.parse", "", start, time.Now(), 0)
	l.set("wire.parse_ns_per_answer", perFrame/rows, probeBlock*int64(rows))
	l.set("wire.bytes_per_answer", float64(len(frame))/rows, int64(rows))
	l.set("server.json_bytes_per_answer", float64(len(asJSON))/rows, int64(rows))
	return failed
}
