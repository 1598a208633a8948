package main

import "slices"

// The benchmark's catalogue: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root repeats the driver-facing
// part of it (bench_test.go keeps the two in step); README.md explains the
// choices.

const (
	wPaper  = "paper_tpch"
	wPoint  = "serve_point_hot"
	wBulk   = "serve_bulk_cold"
	wUpdate = "serve_update_wal"
	wRoute  = "route_2shards"
)

// workloadNames is the run order of `go run .` without -workload.
var workloadNames = []string{wPaper, wPoint, wBulk, wUpdate, wRoute}

// Groups of workloads a metric is measured on.
var (
	onPaper   = []string{wPaper}
	onPoint   = []string{wPoint}
	onUpdate  = []string{wUpdate}
	onRoute   = []string{wRoute}
	onSockets = []string{wPoint, wBulk, wUpdate, wRoute}
	onStatic  = []string{wPaper, wPoint, wBulk, wRoute} // served by access.Index
	onRandom  = []string{wPaper, wBulk, wRoute}         // enumerate in random order
	onBulk    = []string{wBulk, wRoute}                 // move batches of answers
)

// workloadWhy records, in one line each, what a workload is and why it is
// in the set (BENCHMARK.json repeats these).
var workloadWhy = map[string]string{
	wPaper:  "In-process, no socket: TPC-H SF 0.05 (0.44M tuples), 6 CQs and 3 UCQs, random access and full random-order drains; an index or enumeration change shows here, a transport change must not.",
	wPoint:  "renumd on a 4x20k-tuple star join (L2-resident, 3.9e14 answers); 80% /access, 20% /count. The probe is under 5% of a round trip, so transport and the coalescer default decide everything.",
	wBulk:   "renumd from a snapshot of a 2x500k-tuple join (2M answers, index far above L2); 50% /batch of 64, 20% /page, 15% /sample, 15% /enum/next. Probes and encoding dominate; the coalescer is bypassed.",
	wUpdate: "renumd -dynamic with a WAL (fsync per record) on 2x100k tuples; 10% updates beside 60% /access, 20% /sample, 10% /contains, one compaction, then SIGKILL and recovery. Control for coalescer and cache.",
	wRoute:  "serve_bulk_cold's snapshot behind a router and two shard daemons; 40% /access, 30% /batch, 20% /page, 10% /enum/next. Same data with one more process hop, so the router is the layer that differs.",
}

// metricDef describes one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // larger is better
	Bound  float64 // end-to-end: share of the baseline median it may worsen by
	// On lists the workloads that measure the metric; nil means all five.
	On []string
	// Moves names, for a per-layer metric, the end-to-end metric it is
	// predicted to move (README.md has the workload for each).
	Moves string
}

func (m metricDef) on(workload string) bool {
	return m.On == nil || slices.Contains(m.On, workload)
}

// endToEnd is what a user of the system can time, each on the workloads
// that have it. All but fail_share are in BENCHMARK.json and gated by the
// driver. Bounds are sized per metric from ten-seed spreads on the sandbox
// (README.md, "Bounds"): one bound serves every cell of the metric's column,
// stand-ins included, so the widest spread among them sets it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "preprocess_s", Unit: "s", Bound: 0.25, On: onPaper},
	{Name: "access_ns", Unit: "ns", Bound: 0.25, On: onPaper},
	{Name: "renum_answers_per_s", Unit: "1/s", Higher: true, Bound: 0.25, On: onPaper},
	{Name: "ucq_answers_per_s", Unit: "1/s", Higher: true, Bound: 0.25, On: onPaper},
	{Name: "req_per_s", Unit: "1/s", Higher: true, Bound: 0.25, On: onSockets},
	{Name: "answers_per_s", Unit: "1/s", Higher: true, Bound: 0.25, On: onSockets},
	{Name: "lat_p50_us", Unit: "us", Bound: 0.25, On: onSockets},
	{Name: "update_p50_us", Unit: "us", Bound: 0.25, On: onUpdate},
	{Name: "recover_s", Unit: "s", Bound: 0.25, On: onUpdate},
	{Name: "mem_mb", Unit: "MB", Bound: 0.25},
	// fail_share is 0 at the baseline and may not rise at all; the driver
	// reads it from the result's attempted/failed fields instead.
	{Name: "fail_share", Unit: "ratio", Bound: 0},
}

// driverEndToEnd returns the end-to-end metrics of BENCHMARK.json.
func driverEndToEnd() []metricDef {
	return slices.DeleteFunc(slices.Clone(endToEnd), func(m metricDef) bool { return m.Name == "fail_share" })
}

// The driver's result line must carry every end_to_end metric from every
// workload, and none may read 0. A cell whose workload does not have the
// metric therefore repeats, converted to the column's unit, the workload's
// own central latency (lower-is-better columns) or throughput (higher): it
// is gated twice and says nothing new. The table a run prints leaves
// stand-ins out.
func standIn(workload string, higher bool) string {
	switch {
	case workload == wPaper && higher:
		return "renum_answers_per_s"
	case workload == wPaper:
		return "access_ns"
	case higher:
		return "req_per_s"
	}
	return "lat_p50_us"
}

var secondsPer = map[string]float64{"s": 1, "us": 1e-6, "ns": 1e-9}

// driverValue is the result line's value of end-to-end metric m.
func (r *result) driverValue(m metricDef) float64 {
	if m.on(r.workload) {
		return r.e2e[m.Name].V
	}
	src := standIn(r.workload, m.Higher)
	v := r.e2e[src].V
	if !m.Higher {
		i := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.Name == src })
		v *= secondsPer[endToEnd[i].Unit] / secondsPer[m.Unit]
	}
	return v
}

// perLayer is what the traced run (-trace 1) reports: each layer timed from
// outside on the workloads that exercise it. Moves is the end-to-end metric
// a change to that number is predicted to move; README.md says on which
// workload, and on which it must move nothing. The driver's result line
// carries 0 for a layer the workload does not run.
var perLayer = []metricDef{
	// Inputs: set-up only, never preprocessing.
	{Name: "inputs.generate_ms", Unit: "ms", Moves: "setup_s"},
	{Name: "load.csv_ms", Unit: "ms", Moves: "setup_s", On: onSockets},

	// Preprocessing, stage by stage.
	{Name: "plan.search_ms", Unit: "ms", Moves: "preprocess_s"},
	{Name: "reduce.fulljoin_ms", Unit: "ms", Moves: "preprocess_s"},
	{Name: "access.build_ms", Unit: "ms", Moves: "preprocess_s"},
	{Name: "access.build_mtuples_per_s", Unit: "Mtuples/s", Higher: true, Moves: "preprocess_s"},
	{Name: "mcucq.build_ms", Unit: "ms", Moves: "preprocess_s", On: onPaper},

	// The probe.
	{Name: "access.probe_ns", Unit: "ns", Moves: "access_ns", On: onStatic},
	{Name: "access.inverted_ns", Unit: "ns", Moves: "ucq_answers_per_s", On: onStatic},
	{Name: "access.batch_ns_per_answer", Unit: "ns", Moves: "answers_per_s", On: onStatic},
	{Name: "handle.dispatch_ns", Unit: "ns", Moves: "access_ns", On: onStatic},

	// Random-order enumeration of a CQ: the paper's delay figures.
	{Name: "shuffle.next_ns", Unit: "ns", Moves: "renum_answers_per_s", On: onRandom},
	{Name: "cqenum.delay_p50_ns", Unit: "ns", Moves: "renum_answers_per_s", On: onRandom},
	{Name: "cqenum.delay_p99_ns", Unit: "ns", Moves: "renum_answers_per_s", On: onRandom},
	{Name: "cqenum.delay_max_us", Unit: "us", Moves: "renum_answers_per_s", On: onRandom},
	{Name: "cqenum.self_ns", Unit: "ns", Moves: "renum_answers_per_s", On: onRandom},
	{Name: "sample.ew_answers_per_s", Unit: "1/s", Higher: true, Moves: "none (the paper's baseline)", On: onPaper},

	// Random-order enumeration of a union, both algorithms.
	{Name: "unionenum.answers_per_s", Unit: "1/s", Higher: true, Moves: "ucq_answers_per_s", On: onPaper},
	{Name: "unionenum.reject_share", Unit: "ratio", Moves: "ucq_answers_per_s", On: onPaper},
	{Name: "unionenum.delay_p99_ns", Unit: "ns", Moves: "ucq_answers_per_s", On: onPaper},
	{Name: "mcucq.access_ns", Unit: "ns", Moves: "ucq_answers_per_s", On: onPaper},
	{Name: "mcucq.answers_per_s", Unit: "1/s", Higher: true, Moves: "ucq_answers_per_s", On: onPaper},

	// Memory and persistence.
	{Name: "mem.index_bytes_per_tuple", Unit: "B", Moves: "mem_mb"},
	{Name: "snapshot.bytes_per_tuple", Unit: "B", Moves: "mem_mb", On: onSockets},
	{Name: "snapshot.save_ms", Unit: "ms", Moves: "setup_s", On: onSockets},
	{Name: "snapshot.restore_ms", Unit: "ms", Moves: "recover_s", On: onSockets},
	{Name: "renumd.boot_ready_ms", Unit: "ms", Moves: "recover_s", On: onSockets},

	// The ladder: one request sample at every boundary, inside out.
	{Name: "access.call_us", Unit: "us", Moves: "lat_p50_us", On: onSockets},
	{Name: "handle.call_us", Unit: "us", Moves: "lat_p50_us", On: onSockets},
	{Name: "server.handler_us", Unit: "us", Moves: "lat_p50_us", On: onSockets},
	{Name: "server.fastloop_rtt_us", Unit: "us", Moves: "lat_p50_us", On: onSockets},
	{Name: "server.stdmux_rtt_us", Unit: "us", Moves: "none (-http std is not the default)", On: onSockets},
	{Name: "server.floor_rtt_us", Unit: "us", Moves: "lat_p50_us", On: onSockets},
	{Name: "renumd.rtt_us", Unit: "us", Moves: "lat_p50_us", On: onSockets},
	{Name: "router.rtt_us", Unit: "us", Moves: "lat_p50_us", On: onRoute},
	{Name: "handle.self_us", Unit: "us", Moves: "answers_per_s", On: onSockets},
	{Name: "server.handler_self_us", Unit: "us", Moves: "answers_per_s", On: onSockets},
	{Name: "server.transport_self_us", Unit: "us", Moves: "lat_p50_us", On: onSockets},
	{Name: "renumd.config_self_us", Unit: "us", Moves: "lat_p50_us", On: onSockets},
	{Name: "router.hop_self_us", Unit: "us", Moves: "lat_p50_us", On: onRoute},

	// Work per request at the serving tier.
	{Name: "server.allocs_per_req", Unit: "count", Moves: "req_per_s", On: onSockets},
	{Name: "router.allocs_per_req", Unit: "count", Moves: "req_per_s", On: onRoute},
	{Name: "renumd.cpu_us_per_req", Unit: "us", Moves: "req_per_s", On: onSockets},
	{Name: "router.cpu_us_per_req", Unit: "us", Moves: "req_per_s", On: onRoute},
	{Name: "renumd.ctxsw_per_req", Unit: "count", Moves: "req_per_s", On: onSockets},
	{Name: "server.coalesce_merge_ratio", Unit: "ratio", Higher: true, Moves: "lat_p50_us", On: onSockets},
	{Name: "server.scraped_p50_us", Unit: "us", Moves: "lat_p50_us", On: onSockets},

	// Encodings.
	{Name: "wire.parse_ns_per_answer", Unit: "ns", Moves: "answers_per_s", On: onBulk},
	{Name: "wire.bytes_per_answer", Unit: "B", Moves: "answers_per_s", On: onBulk},
	{Name: "server.json_bytes_per_answer", Unit: "B", Moves: "answers_per_s", On: onBulk},

	// The write path.
	{Name: "dynaccess.insert_ns", Unit: "ns", Moves: "update_p50_us", On: onUpdate},
	{Name: "dynaccess.delete_ns", Unit: "ns", Moves: "update_p50_us", On: onUpdate},
	{Name: "dynaccess.probe_ns", Unit: "ns", Moves: "lat_p50_us", On: onUpdate},
	{Name: "wal.append_us", Unit: "us", Moves: "update_p50_us", On: onUpdate},
	{Name: "wal.fsync_p50_us", Unit: "us", Moves: "update_p50_us", On: onUpdate},
	{Name: "wal.fsync_p99_us", Unit: "us", Moves: "none (renumd.update_p99_us)", On: onUpdate},
	{Name: "wal.bytes_per_update", Unit: "B", Moves: "update_p50_us", On: onUpdate},
	{Name: "wal.replay_ms_per_krec", Unit: "ms", Moves: "recover_s", On: onUpdate},
	{Name: "server.update_handler_us", Unit: "us", Moves: "update_p50_us", On: onUpdate},
	{Name: "server.compact_ms", Unit: "ms", Moves: "none (renumd.lat_p99_us)", On: onUpdate},
	{Name: "server.compact_read_stall_p99_us", Unit: "us", Moves: "none (renumd.lat_p99_us)", On: onUpdate},

	// Demoted from the end-to-end set: tails at the client do not repeat on
	// this sandbox (ten-seed spreads of 0.03 to 0.26 and 0.10 to 0.68), and
	// the issue's rule is to demote what does not repeat, not to widen its
	// bound. The untraced run prints both in a note.
	{Name: "renumd.lat_p99_us", Unit: "us", Moves: "none (the tail, as the client sees it)", On: onSockets},
	{Name: "renumd.update_p99_us", Unit: "us", Moves: "none (the fsync tail, as the client sees it)", On: onUpdate},

	// Scale-out.
	{Name: "shard.locate_ns", Unit: "ns", Moves: "lat_p50_us", On: onRoute},
	{Name: "shard.access_ns", Unit: "ns", Moves: "lat_p50_us", On: onRoute},
	{Name: "router.fanout_mean", Unit: "count", Moves: "req_per_s (renumd.lat_p99_us first)", On: onRoute},
	{Name: "router.shard_skew", Unit: "ratio", Moves: "req_per_s (renumd.lat_p99_us first)", On: onRoute},

	// The benchmark's own generator, and what tracing costs.
	{Name: "gen.cpu_us_per_req", Unit: "us", Moves: "none", On: onPoint},
	{Name: "gen.late_p50_us", Unit: "us", Moves: "none", On: onPoint},
	{Name: "gen.late_p99_us", Unit: "us", Moves: "none", On: onPoint},
	{Name: "trace.overhead_share", Unit: "ratio", Moves: "none"},
}
