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
	"repro/internal/wal"
)

// registryMetrics are a Registry's instruments, created with it: build,
// WAL, snapshot, compaction and publish timings. Per-query series (build
// stages, probe histograms) are resolved when an entry is built — the boot
// build included — never per request.
type registryMetrics struct {
	reg *obs.Registry

	snapSave, compact        *obs.Histogram
	compactFolded, published *obs.Counter
	walHooks                 wal.Hooks // fed to every segment the registry opens
}

func newRegistryMetrics(r *Registry) registryMetrics {
	reg := obs.NewRegistry()
	walAppend := reg.Histogram("renum_wal_append_duration_seconds",
		"WAL record write latency (encode+write, fsync excluded).", "")
	walAppendBytes := reg.Counter("renum_wal_append_bytes_total",
		"Bytes appended to the write-ahead log.", "")
	m := registryMetrics{
		reg: reg,
		snapSave: reg.Histogram("renum_snapshot_save_duration_seconds",
			"Snapshot generation write latency.", ""),
		compact: reg.Histogram("renum_compaction_duration_seconds",
			"WAL-fold compaction latency (rebuild aside + snapshot + rotate + publish).", ""),
		compactFolded: reg.Counter("renum_compaction_records_folded_total",
			"WAL records folded into snapshot generations by compaction.", ""),
		published: reg.Counter("renum_generations_published_total",
			"Registry generations published (snapshot pointer swaps).", ""),
		walHooks: wal.Hooks{
			Append: func(bytes int, d time.Duration) {
				walAppend.Record(d)
				walAppendBytes.Add(uint64(bytes))
			},
			Sync: reg.Histogram("renum_wal_fsync_duration_seconds", "WAL fsync latency.", "").Record,
		},
	}
	registerWALCollectors(reg, r)
	return m
}

// buildObserver records query's build stages under the generation the build
// will publish. Builds are rare (boot, admin register/rebuild), so rendering
// the labels here is off every request path.
func (m *registryMetrics) buildObserver(query string, gen uint64) func(stage string, d time.Duration) {
	g := strconv.FormatUint(gen, 10)
	return func(stage string, d time.Duration) {
		m.reg.Histogram("renum_build_duration_seconds",
			"Index build latency, by query, build stage and the generation the build published.",
			obs.Labels("query", query, "stage", stage, "generation", g)).Record(d)
	}
}

// probeOps holds one query's per-operation latency histograms, resolved
// once per entry; the request path records straight into the pointers.
type probeOps struct {
	access, count, batch, page, sample, cursor *obs.Histogram
}

// probeOps resolves query's probe histograms. Registration is get-or-create,
// so a rebuilt entry keeps accumulating into its predecessor's series.
func (m *registryMetrics) probeOps(query string) *probeOps {
	h := func(op string) *obs.Histogram {
		return m.reg.Histogram("renum_probe_duration_seconds",
			"Probe-section latency, by query and operation (excludes parse/encode).",
			obs.Labels("query", query, "op", op))
	}
	return &probeOps{
		access: h("access"),
		count:  h("count"),
		batch:  h("batch"),
		page:   h("page"),
		sample: h("sample"),
		cursor: h("cursor"),
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
