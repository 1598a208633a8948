// Prometheus exposition for the serving tier.
//
// Families and their label sets are registered up front (or at entry build
// time for per-query series); the request path only touches pre-resolved
// instrument pointers, which is what keeps the fast loop at 0 allocs/request
// with observability fully enabled. Values owned elsewhere — generation,
// live cursors, WAL state — are exported through
// scrape-time collectors instead of write-through gauges.
package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// newServerObserver builds the obs.Observer the registry emits into: build,
// plan-search, WAL, snapshot, compaction and publish timings, plus per-query
// probe histograms resolved once per entry.
func newServerObserver(reg *obs.Registry, r *Registry) *obs.Observer {
	walAppend := reg.Histogram("renum_wal_append_duration_seconds",
		"WAL record write latency (encode+write, fsync excluded).", "")
	walAppendBytes := reg.Counter("renum_wal_append_bytes_total",
		"Bytes appended to the write-ahead log.", "")
	walFsync := reg.Histogram("renum_wal_fsync_duration_seconds",
		"WAL fsync latency.", "")
	snapSave := reg.Histogram("renum_snapshot_save_duration_seconds",
		"Snapshot generation write latency.", "")
	compact := reg.Histogram("renum_compaction_duration_seconds",
		"WAL-fold compaction latency (rebuild aside + snapshot + rotate + publish).", "")
	compactFolded := reg.Counter("renum_compaction_records_folded_total",
		"WAL records folded into snapshot generations by compaction.", "")
	published := reg.Counter("renum_generations_published_total",
		"Registry generations published (snapshot pointer swaps).", "")
	planCandidates := reg.Counter("renum_plan_candidates_total",
		"Candidate join trees costed by the planner across all searches.", "")
	planImproved := reg.Counter("renum_plan_improved_total",
		"Planner searches that chose a tree strictly cheaper than the as-parsed one.", "")
	planDur := reg.Histogram("renum_plan_search_duration_seconds",
		"Planner search latency (candidate enumeration + costing), at entry build time.", "")

	return &obs.Observer{
		Build: func(query, stage string, d time.Duration) {
			// Builds are rare (admin register/rebuild), so rendering the
			// generation label here is off every request path. The label
			// makes build latency attributable per published generation.
			gen := strconv.FormatUint(r.snap.Load().gen+1, 10)
			reg.Histogram("renum_build_duration_seconds",
				"Index build latency, by query, build stage and the generation the build published.",
				obs.Labels("query", query, "stage", stage, "generation", gen)).Record(d)
		},
		WALAppend: func(bytes int, d time.Duration) {
			walAppend.Record(d)
			walAppendBytes.Add(uint64(bytes))
		},
		WALFsync:     walFsync.Record,
		SnapshotSave: func(gen uint64, d time.Duration) { snapSave.Record(d) },
		Compaction: func(d time.Duration, folded int64) {
			compact.Record(d)
			if folded > 0 {
				compactFolded.Add(uint64(folded))
			}
		},
		Publish: func(gen uint64) { published.Inc() },
		Plan: func(query string, candidates int, identity bool, chosenCost, identityCost float64, d time.Duration) {
			// Plan searches are build-time events (admin register/rebuild),
			// so resolving the per-query series here is off every request
			// path — same reasoning as the build histogram above.
			reg.Counter("renum_plan_searches_total",
				"Planner searches run at entry build time, by query.",
				obs.Labels("query", query)).Inc()
			planCandidates.Add(uint64(candidates))
			if !identity {
				planImproved.Inc()
			}
			planDur.Record(d)
		},
		QueryOps: func(query string) *obs.ProbeOps {
			h := func(op string) *obs.Histogram {
				return reg.Histogram("renum_probe_duration_seconds",
					"Probe-section latency, by query and operation (excludes parse/encode).",
					obs.Labels("query", query, "op", op))
			}
			return &obs.ProbeOps{
				Access: h("access"),
				Count:  h("count"),
				Batch:  h("batch"),
				Page:   h("page"),
				Sample: h("sample"),
				Cursor: h("cursor"),
			}
		},
	}
}

// registerCollectors exports the front's scrape-time values.
func (s *Server) registerCollectors() {
	start := time.Now()
	s.obs.CollectorFunc("renum_generation", "Currently served registry generation.",
		obs.KindGauge, func(emit func(string, float64)) {
			_, gen := s.ready()
			emit("", float64(gen))
		})
	s.obs.CollectorFunc("renum_cursors", "Live enumeration cursors.",
		obs.KindGauge, func(emit func(string, float64)) {
			emit("", float64(s.cursors()))
		})
	s.obs.CollectorFunc("renum_uptime_seconds", "Seconds since the server started.",
		obs.KindGauge, func(emit func(string, float64)) {
			emit("", time.Since(start).Seconds())
		})
	s.obs.CollectorFunc("renum_ready", "Readiness: 1 when serving traffic, 0 during boot or drain.",
		obs.KindGauge, func(emit func(string, float64)) {
			v := 0.0
			if s.Ready() {
				v = 1
			}
			emit("", v)
		})
	s.obs.CollectorFunc("renum_traces_dropped_total", "Trace records evicted from the /debug/traces ring.",
		obs.KindCounter, func(emit func(string, float64)) {
			emit("", float64(s.traces.dropped()))
		})
}

// registerWALCollectors exports the registry's WAL state, while one is
// attached.
func registerWALCollectors(o *obs.Registry, r *Registry) {
	for _, c := range []struct {
		name, help string
		kind       obs.Kind
		value      func(WALStats) float64
	}{
		{"renum_wal_depth", "Records in the current WAL segment (replayed + appended).",
			obs.KindGauge, func(st WALStats) float64 { return float64(st.Depth) }},
		{"renum_wal_replayed_records", "Records replayed from the WAL at boot.",
			obs.KindGauge, func(st WALStats) float64 { return float64(st.Replayed) }},
		{"renum_wal_replay_seconds", "Time the boot spent opening the WAL segment and replaying its records.",
			obs.KindGauge, func(st WALStats) float64 { return st.ReplaySeconds }},
		{"renum_compactions_total", "Completed WAL-fold compactions.",
			obs.KindCounter, func(st WALStats) float64 { return float64(st.Compactions) }},
		{"renum_wal_torn_tail_recovered", "1 when the boot truncated a torn WAL tail (a crash mid-append), else 0.",
			obs.KindGauge, func(st WALStats) float64 {
				if st.TornTail {
					return 1
				}
				return 0
			}},
		{"renum_wal_rotate_warnings_total", "WAL rotations whose superseded segment could not be closed or removed (the fold itself succeeded).",
			obs.KindCounter, func(st WALStats) float64 { return float64(st.RotateWarnings) }},
	} {
		o.CollectorFunc(c.name, c.help, c.kind, func(emit func(string, float64)) {
			if st := r.WALStats(); st.Attached {
				emit("", c.value(st))
			}
		})
	}
}

// handleMetrics renders the text exposition (format version 0.0.4); the
// query string is ignored.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return s.obs.WritePrometheus(w)
}
