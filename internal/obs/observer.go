package obs

import "time"

// ProbeOps holds one query's per-operation latency histograms. The
// serving tier resolves this once per registry entry and records
// straight into the pointers — no lookup on the request path.
type ProbeOps struct {
	Access *Histogram
	Count  *Histogram
	Batch  *Histogram
	Page   *Histogram
	Sample *Histogram
	Cursor *Histogram
}

// Observer is the hook surface the core paths emit into. Every field
// is optional and every method is safe on a nil receiver, so
// instrumented code calls unconditionally:
//
//	obs.ObserveBuild("Q", "total", time.Since(t0))
//
// The server tier supplies an Observer backed by a Registry; library
// users and tests can leave it nil for zero overhead.
type Observer struct {
	// Build fires after an index build stage for a query. Stages:
	// "total" (the whole renum.Open), the stages renum.WithBuildObserver
	// lists — "plan_search"; "instantiate", "semijoin", "eliminate" and
	// "member_index" (a static CQ's reduction); "index_build" (the access
	// structure's own wave build); "dynamic_build", "union_build".
	Build func(query, stage string, d time.Duration)
	// WALAppend fires per record appended (encode+write, no fsync).
	WALAppend func(bytes int, d time.Duration)
	// WALFsync fires per fsync of the write-ahead log.
	WALFsync func(d time.Duration)
	// SnapshotSave fires after a snapshot generation is written.
	SnapshotSave func(gen uint64, d time.Duration)
	// Compaction fires after Registry.Compact folds the WAL into a
	// new snapshot generation.
	Compaction func(d time.Duration, folded int64)
	// Publish fires when a new registry generation becomes visible.
	Publish func(gen uint64)
	// Plan fires after the cost-based planner searches a query's join
	// trees at build time: how many candidates were costed, whether the
	// as-parsed tree won (identity), the chosen and as-parsed costs, and
	// the search duration. Build-time only, never on a probe path.
	Plan func(query string, candidates int, identity bool, chosenCost, identityCost float64, d time.Duration)
	// QueryOps resolves the per-operation probe histograms for a
	// query; called at entry build/registration time, never per
	// request.
	QueryOps func(query string) *ProbeOps
}

// ObserveBuild reports a build stage duration.
func (o *Observer) ObserveBuild(query, stage string, d time.Duration) {
	if o == nil || o.Build == nil {
		return
	}
	o.Build(query, stage, d)
}

// ObserveWALAppend reports one WAL record write.
func (o *Observer) ObserveWALAppend(bytes int, d time.Duration) {
	if o == nil || o.WALAppend == nil {
		return
	}
	o.WALAppend(bytes, d)
}

// ObserveWALFsync reports one WAL fsync.
func (o *Observer) ObserveWALFsync(d time.Duration) {
	if o == nil || o.WALFsync == nil {
		return
	}
	o.WALFsync(d)
}

// ObserveSnapshotSave reports one snapshot write.
func (o *Observer) ObserveSnapshotSave(gen uint64, d time.Duration) {
	if o == nil || o.SnapshotSave == nil {
		return
	}
	o.SnapshotSave(gen, d)
}

// ObserveCompaction reports one completed compaction.
func (o *Observer) ObserveCompaction(d time.Duration, folded int64) {
	if o == nil || o.Compaction == nil {
		return
	}
	o.Compaction(d, folded)
}

// ObservePublish reports a newly published generation.
func (o *Observer) ObservePublish(gen uint64) {
	if o == nil || o.Publish == nil {
		return
	}
	o.Publish(gen)
}

// ObservePlan reports one planner search.
func (o *Observer) ObservePlan(query string, candidates int, identity bool, chosenCost, identityCost float64, d time.Duration) {
	if o == nil || o.Plan == nil {
		return
	}
	o.Plan(query, candidates, identity, chosenCost, identityCost, d)
}

// Ops resolves per-query probe histograms, or nil when unobserved.
func (o *Observer) Ops(query string) *ProbeOps {
	if o == nil || o.QueryOps == nil {
		return nil
	}
	return o.QueryOps(query)
}
