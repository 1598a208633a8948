// Command renumd serves enumeration indexes over HTTP: it loads CSV tables,
// compiles the -query programs into static CQ, mc-UCQ or dynamic handles
// (renum.Open), and exposes the whole probe surface as a JSON API — so consumers
// that do not link the Go library can still count, page, sample and
// enumerate query answers. See internal/server for the endpoint reference.
//
// Usage:
//
//	renumd -addr :8080 -table r.csv -table s.csv \
//	       -query 'Q(x, y, z) :- r(x, y), s(y, z).'
//
// Each -table FILE registers a relation (base name = relation name, header
// row = schema, cells interned verbatim). Each -query PROGRAM may hold any
// number of rules; rules are grouped by head predicate, a multi-rule head
// becoming a union query. With -dynamic, single-rule full CQs build dynamic
// indexes that accept POST /v1/{query}/update.
//
// GET /v1/{query}/access is one direct index probe; /batch amortises many.
// Cursor sessions started via /v1/{query}/enum/start are evicted after
// -cursor-ttl of inactivity. -workers is each entry's worker budget — index
// build parallelism and batch/page/sample probe fan-out (0 = all cores).
//
// The serving port runs a pooled per-connection HTTP/1.1 loop
// (internal/server/fastloop.go) that answers the hot GET probe endpoints
// without allocating and hands every other request to the net/http mux.
// -debug-addr exposes net/http/pprof on a separate listener (off unless
// set), so production profiling never rides the serving address.
//
// # Snapshots
//
// With -snapshot-dir, the daemon boots from the newest catalog snapshot in
// the directory (gen-<generation>.snap) when one exists: the compiled
// indexes are mapped straight from disk — cold start is open+validate, not
// load+preprocess — and the registry's generation numbering continues from
// the saved value, so generations stay monotonic across restarts. Any
// -table/-query flags are then applied on top of the restored state. When
// the directory is empty (first boot), -table/-query are required as usual.
// POST /admin/save persists the current generation into the directory, and
// -persist-on-exit saves automatically after the graceful drain, so
// SIGTERM → restart round-trips the served state. Dynamic (updatable)
// entries persist their base contents like everything else and come back
// updatable.
//
// # Durability (write-ahead log)
//
// With -wal-dir, every acknowledged POST /v1/{query}/update is appended to
// wal-<generation>.log — fsynced under -wal-fsync=always, the default —
// strictly before it is applied, so even a SIGKILL loses no acked update:
// the next boot replays the segment paired with the generation it restores.
// -compact-every folds the segment into a fresh snapshot generation on a
// timer (POST /admin/compact does it on demand): updatable entries are
// rebuilt aside, gen+1 is saved, the WAL rotates empty, and the new
// generation is published without blocking probes.
//
// Crash recovery pairs the newest snapshot with its segment, so reboot a
// WAL-enabled daemon from its -snapshot-dir (no -table/-query flags):
// re-registering on top would rebuild entries from base CSVs and bump the
// generation away from the segment that holds the acked updates. Admin
// mutations (load/register/rebuild) are not logged; they become durable at
// the next save or compaction.
//
// # Scale-out (sharding)
//
// -shard-slice i/K puts the daemon in shard mode: every entry serves only
// the i-th of K contiguous slices of its answer space, as local positions
// 0..count-1 — the exact position window [iN/K, (i+1)N/K) of the whole
// index, whether the entry was built from -table CSVs, restored from
// -snapshot-dir or rebuilt later, so a fleet may mix boot paths.
// -router turns the daemon into the stateless scale-out tier instead: it
// discovers the shard daemons from repeatable -shard URLs (or a -shards-from
// file, re-read every -shard-refresh), scrapes their counts into a
// prefix-sum routing table, and serves the same probe API with answers
// byte-identical to a single unsharded daemon — /readyz is 503 until every
// shard is ready, and a shard fault maps to a typed 502 naming the daemon.
// Shard order in the -shard list must match the -shard-slice indexes.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get -drain-timeout to finish, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/server/router"
	"repro/internal/wal"
)

type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(s string) error { *l = append(*l, s); return nil }

// bootTime is the time a boot step took, as its log line prints it: after a
// crash the restore and the WAL replay lines show which half took the time.
func bootTime(t0 time.Time) time.Duration {
	return time.Since(t0).Round(100 * time.Microsecond)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable plumbing so tests can drive the daemon.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("renumd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	return runFlags(fs, args, stdout, stderr)
}

// runFlags declares the daemon's flags on fs, parses args and serves. The
// FlagSet is the caller's so TestFlagSurface can read back what was declared
// and diff it against api/renumd-flags.txt.
func runFlags(fs *flag.FlagSet, args []string, stdout, stderr io.Writer) int {
	var tables, queries, shards stringList
	fs.Var(&tables, "table", "CSV file to load as a relation (repeatable)")
	fs.Var(&queries, "query", "datalog program to serve (repeatable)")
	fs.Var(&shards, "shard", "router mode: shard daemon base URL, in shard order (repeatable)")
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		dynamic      = fs.Bool("dynamic", false, "build dynamic (updatable) indexes for single-rule full CQs")
		workers      = fs.Int("workers", 0, "worker budget per entry: index build and batch/page/sample fan-out (0 = all cores)")
		cursorTTL    = fs.Duration("cursor-ttl", 5*time.Minute, "idle eviction of enumeration cursors")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
		noAdmin      = fs.Bool("no-admin", false, "disable the /admin endpoints")
		snapshotDir  = fs.String("snapshot-dir", "", "boot from the newest catalog snapshot here; /admin/save writes new ones")
		persistExit  = fs.Bool("persist-on-exit", false, "save the current generation to -snapshot-dir after the graceful drain")
		walDir       = fs.String("wal-dir", "", "write-ahead log directory: replay on boot, append every acked update")
		walFsync     = fs.String("wal-fsync", "always", "WAL durability policy: always (fsync per record) or none")
		compactEvery = fs.Duration("compact-every", 0, "fold the WAL into a new snapshot generation on this period (0 disables; requires -wal-dir and -snapshot-dir)")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof on this address (off unless set)")
		slowLog      = fs.Duration("slow-log", 500*time.Millisecond, "log requests slower than this as structured slog lines (0 disables)")
		traceBuffer  = fs.Int("trace-buffer", 256, "traced requests kept in memory for /debug/traces")
		routerMode   = fs.Bool("router", false, "serve as the scale-out router over -shard daemons instead of serving indexes")
		shardsFrom   = fs.String("shards-from", "", "router mode: read the shard URL list from this file (re-read every -shard-refresh)")
		shardRefresh = fs.Duration("shard-refresh", 2*time.Second, "router mode: period for scraping shard counts and health")
		shardSlice   = fs.String("shard-slice", "", "serve only slice i of a K-way answer partition, as \"i/K\" (shard daemon mode)")
		plannerMode  = fs.String("planner", "cost", "join-tree planning for entry builds: cost (search candidate trees, keep the cheapest) or off (serve the as-parsed tree byte-for-byte)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *routerMode {
		if len(tables) > 0 || len(queries) > 0 || *shardSlice != "" || *dynamic {
			fmt.Fprintln(stderr, "renumd: -router takes no -table/-query/-shard-slice/-dynamic flags")
			return 2
		}
		if len(shards) == 0 && *shardsFrom == "" {
			fmt.Fprintln(stderr, "renumd: -router requires at least one -shard URL or -shards-from")
			return 2
		}
		return runRouter(shards, *shardsFrom, *addr, *shardRefresh, *cursorTTL, *drainTimeout, stdout, stderr)
	}
	var sliceIdx, sliceOf int
	if *shardSlice != "" {
		if n, err := fmt.Sscanf(*shardSlice, "%d/%d", &sliceIdx, &sliceOf); n != 2 || err != nil {
			fmt.Fprintf(stderr, "renumd: -shard-slice must be i/K (got %q)\n", *shardSlice)
			return 2
		}
		if sliceOf < 1 || sliceIdx < 0 || sliceIdx >= sliceOf {
			fmt.Fprintf(stderr, "renumd: -shard-slice %s out of range\n", *shardSlice)
			return 2
		}
		if *dynamic || *walDir != "" {
			fmt.Fprintln(stderr, "renumd: -shard-slice is static: it cannot combine with -dynamic or -wal-dir (positions shift under updates)")
			return 2
		}
	}
	planner, err := renum.ParsePlannerMode(*plannerMode)
	if err != nil {
		fmt.Fprintf(stderr, "renumd: %v\n", err)
		return 2
	}
	if *persistExit && *snapshotDir == "" {
		fmt.Fprintln(stderr, "renumd: -persist-on-exit requires -snapshot-dir")
		return 2
	}
	walPolicy, err := wal.ParseSyncPolicy(*walFsync)
	if err != nil {
		fmt.Fprintf(stderr, "renumd: %v\n", err)
		return 2
	}
	if *compactEvery > 0 && (*walDir == "" || *snapshotDir == "") {
		fmt.Fprintln(stderr, "renumd: -compact-every requires -wal-dir and -snapshot-dir")
		return 2
	}

	// Boot from the newest snapshot when one exists; otherwise from CSVs.
	var reg *server.Registry
	if *snapshotDir != "" {
		path, gen, ok, err := load.LatestSnapshot(*snapshotDir)
		if err != nil {
			fmt.Fprintf(stderr, "renumd: %v\n", err)
			return 1
		}
		if ok {
			t0 := time.Now()
			cat, err := renum.OpenSnapshot(path, renum.WithWorkers(*workers))
			if err != nil {
				fmt.Fprintf(stderr, "renumd: open snapshot %s: %v\n", path, err)
				return 1
			}
			// The catalog backs the served handles with its file mapping:
			// hold it for the process lifetime.
			defer cat.Close()
			reg, err = server.NewRegistryFromCatalog(cat, server.CoalesceConfig{}, *workers)
			if err != nil {
				fmt.Fprintf(stderr, "renumd: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "renumd: restored snapshot %s (generation %d) in %v\n", path, gen, bootTime(t0))
		}
	}
	if reg == nil {
		if len(queries) == 0 || len(tables) == 0 {
			fmt.Fprintln(stderr, "renumd: at least one -table and one -query are required (or a -snapshot-dir holding a snapshot)")
			fs.Usage()
			return 2
		}
		db := renum.NewDatabase()
		if err := load.Tables(db, tables); err != nil {
			fmt.Fprintf(stderr, "renumd: %v\n", err)
			return 1
		}
		reg = server.NewRegistry(db, server.CoalesceConfig{}, *workers)
	} else {
		// Snapshot boot: -table/-query apply on top of the restored state.
		for _, path := range tables {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(stderr, "renumd: %v\n", err)
				return 1
			}
			name := strings.TrimSuffix(filepath.Base(path), ".csv")
			err = reg.LoadTable(name, f)
			f.Close()
			if err != nil {
				fmt.Fprintf(stderr, "renumd: %s: %v\n", path, err)
				return 1
			}
		}
	}
	// Planner mode applies to every entry built from here on (the Register
	// loop below, later /admin/register and /admin/rebuild). Snapshot-restored
	// entries keep the tree they were built with — that is the snapshot
	// contract: restored generations probe identically.
	reg.SetPlanner(planner)
	// Shard mode: restored catalog entries get their position windows here,
	// and the Register loop below cuts the same windows over what it builds.
	if sliceOf > 0 {
		if err := reg.SetShardSlice(sliceIdx, sliceOf); err != nil {
			fmt.Fprintf(stderr, "renumd: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "renumd: serving shard slice %d/%d\n", sliceIdx, sliceOf)
	}
	for _, program := range queries {
		if _, err := reg.Register(program, *dynamic); err != nil {
			fmt.Fprintf(stderr, "renumd: %v\n", err)
			return 1
		}
	}
	for _, name := range reg.Names() {
		e, _ := reg.Lookup(name)
		fmt.Fprintf(stdout, "renumd: serving %s (%s, %d answers)\n", name, e.Kind(), e.Count())
	}

	// The WAL attaches after every entry is registered: replay needs the
	// entries it targets, and the segment pairs with the generation the
	// boot sequence lands on (deterministic for a fixed flag set).
	if *walDir != "" {
		t0 := time.Now()
		replayed, skipped, err := reg.AttachWAL(*walDir, walPolicy)
		if err != nil {
			fmt.Fprintf(stderr, "renumd: attach WAL: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "renumd: WAL attached (%d records replayed, %d skipped) in %v\n", replayed, skipped, bootTime(t0))
		defer reg.CloseWAL()
	}

	// Slow-request lines go to stderr as JSON so log shippers pick them up
	// without parsing the human-oriented stdout chatter.
	logger := slog.New(slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	srv := server.New(reg, server.Config{
		CursorTTL:     *cursorTTL,
		AdminDisabled: *noAdmin,
		SnapshotDir:   *snapshotDir,
		SlowLog:       *slowLog,
		TraceBuffer:   *traceBuffer,
		Logger:        logger,
	})
	defer srv.Close()

	// Profiling endpoints live on their own listener: the serving port's
	// loop does not mount them, and they are never exposed on the serving
	// address.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		dbgLn, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "renumd: debug listener: %v\n", err)
			return 1
		}
		go dbg.Serve(dbgLn)
		defer dbg.Close()
		fmt.Fprintf(stdout, "renumd: pprof on %s\n", dbgLn.Addr())
	}

	// The loop keeps net/http's shutdown contract: ListenAndServe returns
	// http.ErrServerClosed after Shutdown, and Shutdown drains in-flight
	// requests until its context expires.
	fastSrv := server.NewFastServer(srv)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Online compactor: fold the WAL into a fresh snapshot generation on a
	// timer. Probes never block on it; an empty segment is a no-op.
	var compactWG sync.WaitGroup
	if *compactEvery > 0 {
		compactWG.Add(1)
		go func() {
			defer compactWG.Done()
			tick := time.NewTicker(*compactEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					gen, folded, err := reg.Compact(*snapshotDir)
					if err != nil {
						fmt.Fprintf(stderr, "renumd: compact: %v\n", err)
						continue
					}
					if folded > 0 {
						fmt.Fprintf(stdout, "renumd: compacted %d records into generation %d\n", folded, gen)
					}
				}
			}
		}()
	}

	fmt.Fprintf(stdout, "renumd: listening on %s (fast loop)\n", *addr)
	errCh := make(chan error, 1)
	go func() { errCh <- fastSrv.ListenAndServe(*addr) }()

	select {
	case err := <-errCh:
		// Listen failure (port in use, bad addr): nothing to drain. Stop
		// the compactor before touching stderr from this goroutine.
		stop()
		compactWG.Wait()
		fmt.Fprintf(stderr, "renumd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// The compactor stops (and stops printing) before the main goroutine
	// resumes writing to stdout. Readiness drops first so orchestrators
	// stop routing new traffic while the drain runs.
	srv.SetReady(false)
	compactWG.Wait()
	fmt.Fprintln(stdout, "renumd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := fastSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "renumd: drain: %v\n", err)
		return 1
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "renumd: %v\n", err)
		return 1
	}
	if *persistExit {
		// After the drain: no requests are in flight, so the saved snapshot
		// is exactly the state the last client observed. A failed save is a
		// hard error — exiting 0 would silently drop state the operator
		// asked to keep.
		path, gen, skipped, err := reg.SaveSnapshot(*snapshotDir)
		if err != nil {
			fmt.Fprintf(stderr, "renumd: persist-on-exit: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "renumd: saved %s (generation %d)\n", path, gen)
		for _, name := range skipped {
			fmt.Fprintf(stdout, "renumd: skipped %s (no snapshot form)\n", name)
		}
	}
	fmt.Fprintln(stdout, "renumd: bye")
	return 0
}

// runRouter serves the scale-out tier: no local indexes, just the routing
// table over the shard daemons. Same graceful-shutdown contract as the
// daemon: readiness drops first, in-flight requests get the drain timeout.
func runRouter(shards []string, shardsFrom, addr string, refresh, cursorTTL, drainTimeout time.Duration, stdout, stderr io.Writer) int {
	logger := slog.New(slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	rt := router.New(router.Config{
		Shards:     shards,
		ShardsFile: shardsFrom,
		Refresh:    refresh,
		CursorTTL:  cursorTTL,
		Logger:     logger,
	})
	defer rt.Close()
	<-rt.Start()
	if rt.Ready() {
		fmt.Fprintln(stdout, "renumd: routing table ready")
	} else {
		// Not fatal: the scrape loop keeps retrying and /readyz reports 503
		// honestly until the fleet comes up — routers boot before shards in
		// a compose stack.
		fmt.Fprintln(stdout, "renumd: shards not ready yet; serving 503 until the fleet scrapes ready")
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stdout, "renumd: router listening on %s (%d shards)\n", addr, len(shards))
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		stop()
		fmt.Fprintf(stderr, "renumd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	rt.SetReady(false)
	fmt.Fprintln(stdout, "renumd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "renumd: drain: %v\n", err)
		return 1
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "renumd: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "renumd: bye")
	return 0
}
