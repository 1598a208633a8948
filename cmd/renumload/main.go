// Command renumload is the serving-tier load harness behind
// BENCH_serving.json: it builds a synthetic star-join dataset, serves it
// in-process exactly as cmd/renumd does (the fast connection loop), and
// drives open-loop probe traffic over real loopback sockets.
//
// Open loop means request i has a fixed scheduled start time t0 + i/rate
// and latency is measured from that schedule, not from when a worker got
// around to sending — a slow server shows up as growing latency instead of
// silently throttling the measured rate (no coordinated omission).
//
// The client side is a minimal hand-rolled HTTP/1.1 codec over persistent
// connections (preformatted request bytes, reused response scratch), so in
// steady state the whole process — client and server, which share this
// process's heap — allocates nothing per request. That is what makes the
// reported allocs/op an honest serving-tier figure: it is measured with
// runtime.MemStats deltas around the timed window and divided by the
// request count. allocs/op is rounded to the nearest integer: real
// per-request regressions arrive in ≥1 alloc/req quanta, while the
// sub-integer residue is GC and scheduler background noise.
//
// Usage:
//
//	renumload                          # all phases, human-readable summary
//	renumload -bench-json BENCH_serving.json
//	renumload -phases access,batch16 -rate 8000 -n 5000
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"repro/internal/benchfmt"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	tuples     int
	relations  int
	rate       float64
	n          int
	conns      int
	phases     string
	benchJSON  string
	metricsURL string
	seed       int64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("renumload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.tuples, "tuples", 20_000, "tuples per synthetic relation")
	fs.IntVar(&o.relations, "relations", 4, "relations in the star join")
	fs.Float64Var(&o.rate, "rate", 5_000, "scheduled request rate per phase (req/s)")
	fs.IntVar(&o.n, "n", 3_000, "measured requests per phase")
	fs.IntVar(&o.conns, "conns", 4, "persistent client connections")
	fs.StringVar(&o.phases, "phases", "", "comma-separated phase subset (default all)")
	fs.StringVar(&o.benchJSON, "bench-json", "", "write results as a benchfmt JSON doc to this file")
	fs.StringVar(&o.metricsURL, "metrics-url", "", "scrape this base URL's /metrics?format=json around each phase and print a server-vs-client latency table ('self' = the in-process server)")
	fs.Int64Var(&o.seed, "seed", 7, "dataset and workload seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// --- Dataset and serving stack (the registry and server renumd ships: the
	// alloc figures describe the deployed /access path) ---------------------
	db, q, err := synth.Star(synth.Config{
		Relations: o.relations, TuplesPerRelation: o.tuples, KeyDomain: 2_000, SkewS: 1.2, Seed: o.seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, "renumload:", err)
		return 1
	}
	var atoms []string
	for _, a := range q.Body {
		terms := make([]string, len(a.Terms))
		for i, t := range a.Terms {
			terms[i] = t.Var
		}
		atoms = append(atoms, fmt.Sprintf("%s(%s)", a.Relation, strings.Join(terms, ", ")))
	}
	program := fmt.Sprintf("Q(%s) :- %s.", strings.Join(q.Head, ", "), strings.Join(atoms, ", "))
	reg := server.NewRegistry(db, server.CoalesceConfig{}, 0)
	t0 := time.Now()
	if _, err := reg.Register(program, false); err != nil {
		fmt.Fprintln(stderr, "renumload:", err)
		return 1
	}
	entry, _ := reg.Lookup("Q")
	count := entry.Count()
	srv := server.New(reg, server.Config{})
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(stderr, "renumload:", err)
		return 1
	}
	fastSrv := server.NewFastServer(srv)
	go fastSrv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fastSrv.Shutdown(ctx)
	}()
	addr := ln.Addr().String()
	// Traffic only opens once the daemon reports ready — poll /readyz, never
	// sleep-and-fire. In-process this is one round trip; against a router it
	// is the difference between measuring the fleet and measuring its boot.
	if err := waitReady("http://"+addr, 10*time.Second); err != nil {
		fmt.Fprintln(stderr, "renumload:", err)
		return 1
	}
	fmt.Fprintf(stdout, "index built in %v: %d answers over %d tuples; serving on %s\n",
		time.Since(t0).Round(time.Millisecond), count, db.Size(), addr)

	// --- Phases -----------------------------------------------------------
	all := phases(count)
	selected := all
	if o.phases != "" {
		selected = nil
		for _, name := range strings.Split(o.phases, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, p := range all {
				if p.name == name {
					selected = append(selected, p)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(stderr, "renumload: unknown phase %q (have %s)\n", name, phaseNames(all))
				return 2
			}
		}
	}

	// Server-side scrape target: the daemon reports its own latency view at
	// /metrics, and comparing it with the client's open-loop view separates
	// server time from scheduling/queueing/network time.
	metricsBase := o.metricsURL
	if metricsBase == "self" {
		metricsBase = "http://" + addr
	}

	doc := &benchfmt.Doc{Goos: runtime.GOOS, Goarch: runtime.GOARCH, Pkg: "repro/serving", CPU: cpuModel()}
	var divRows []divergenceRow
	fmt.Fprintf(stdout, "\n%-14s %10s %10s %10s %10s %10s %8s\n",
		"phase", "req/s", "mean µs", "p50 µs", "p99 µs", "B/req", "allocs")
	for _, p := range selected {
		var before metricsScrape
		if metricsBase != "" {
			var err error
			if before, err = scrapeMetrics(metricsBase); err != nil {
				fmt.Fprintf(stderr, "renumload: scrape %s: %v\n", metricsBase, err)
				return 1
			}
		}
		res, err := runPhase(addr, p, o)
		if err != nil {
			fmt.Fprintf(stderr, "renumload: phase %s: %v\n", p.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%-14s %10.0f %10.1f %10.1f %10.1f %10.0f %8.0f\n",
			p.name, res.Metrics["req/s"], res.Metrics["ns/op"]/1e3,
			res.Metrics["p50-ns"]/1e3, res.Metrics["p99-ns"]/1e3,
			res.Metrics["B/op"], res.Metrics["allocs/op"])
		doc.Benchmarks = append(doc.Benchmarks, res)
		if ep := phaseEndpoint(p.name); metricsBase != "" && ep != "" {
			after, err := scrapeMetrics(metricsBase)
			if err != nil {
				fmt.Fprintf(stderr, "renumload: scrape %s: %v\n", metricsBase, err)
				return 1
			}
			divRows = append(divRows, divergenceRow{
				phase:     p.name,
				endpoint:  ep,
				reqs:      after[ep].Count - before[ep].Count,
				serverP50: after[ep].MedianMs * 1e3,
				serverP99: after[ep].P99Ms * 1e3,
				clientP50: res.Metrics["p50-ns"] / 1e3,
				clientP99: res.Metrics["p99-ns"] / 1e3,
			})
		}
	}

	if len(divRows) > 0 {
		// Server quantiles come from the full-history /metrics histogram
		// (warmup included); the client side measures from each request's
		// scheduled start. The delta is therefore scheduling + queueing +
		// loopback time — the part of the latency the server cannot see.
		fmt.Fprintf(stdout, "\nserver-vs-client latency (server = /metrics histogram; client = open-loop schedule):\n")
		fmt.Fprintf(stdout, "%-14s %-10s %8s %12s %12s %9s %12s %12s %9s\n",
			"phase", "endpoint", "reqs", "srv p50 µs", "cli p50 µs", "Δp50 µs", "srv p99 µs", "cli p99 µs", "Δp99 µs")
		for _, r := range divRows {
			fmt.Fprintf(stdout, "%-14s %-10s %8d %12.1f %12.1f %9.1f %12.1f %12.1f %9.1f\n",
				r.phase, r.endpoint, r.reqs,
				r.serverP50, r.clientP50, r.clientP50-r.serverP50,
				r.serverP99, r.clientP99, r.clientP99-r.serverP99)
		}
	}

	if o.benchJSON != "" {
		f, err := os.Create(o.benchJSON)
		if err != nil {
			fmt.Fprintln(stderr, "renumload:", err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, "renumload:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "renumload:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", o.benchJSON)
	}
	return 0
}

// divergenceRow is one phase's server-vs-client latency comparison.
type divergenceRow struct {
	phase, endpoint      string
	reqs                 int64
	serverP50, serverP99 float64 // µs
	clientP50, clientP99 float64 // µs
}

// metricsScrape is one /metrics?format=json observation, keyed by endpoint.
type metricsScrape map[string]server.EndpointSummary

func scrapeMetrics(base string) (metricsScrape, error) {
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics?format=json: %s", resp.Status)
	}
	var doc struct {
		Endpoints []server.EndpointSummary `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	out := make(metricsScrape, len(doc.Endpoints))
	for _, ep := range doc.Endpoints {
		out[ep.Endpoint] = ep
	}
	return out, nil
}

// phaseEndpoint maps a load phase to the /metrics endpoint it exercises
// ("" when the phase mixes endpoints and no single row applies).
func phaseEndpoint(name string) string {
	switch {
	case name == "access":
		return "access"
	case name == "count":
		return "count"
	case strings.HasPrefix(name, "batch"):
		return "batch"
	case strings.HasPrefix(name, "page"):
		return "page"
	case name == "cursor64":
		return "enum_next"
	}
	return ""
}

// phase describes one workload: build writes a complete request into dst.
// Requests must be self-framing GETs (the harness never sends bodies on the
// hot path).
type phase struct {
	name  string
	wire  bool
	build func(dst []byte, rng *rand.Rand, w *worker) []byte
}

// phases returns every workload over a query with n answers.
func phases(n int64) []phase {
	get := func(dst []byte, path string) []byte {
		dst = append(dst, "GET "...)
		dst = append(dst, path...)
		return dst
	}
	finish := func(dst []byte, asWire bool) []byte {
		dst = append(dst, " HTTP/1.1\r\nHost: l\r\n"...)
		if asWire {
			dst = append(dst, "Accept: "...)
			dst = append(dst, wire.ContentType...)
			dst = append(dst, '\r', '\n')
		}
		return append(dst, '\r', '\n')
	}
	access := func(dst []byte, rng *rand.Rand, _ *worker) []byte {
		dst = get(dst, "/v1/Q/access?j=")
		dst = strconv.AppendInt(dst, rng.Int63n(n), 10)
		return finish(dst, false)
	}
	batch := func(asWire bool) func([]byte, *rand.Rand, *worker) []byte {
		return func(dst []byte, rng *rand.Rand, _ *worker) []byte {
			dst = get(dst, "/v1/Q/batch?js=")
			for k := 0; k < 16; k++ {
				if k > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, rng.Int63n(n), 10)
			}
			return finish(dst, asWire)
		}
	}
	page := func(asWire bool) func([]byte, *rand.Rand, *worker) []byte {
		return func(dst []byte, rng *rand.Rand, _ *worker) []byte {
			dst = get(dst, "/v1/Q/page?limit=25&offset=")
			dst = strconv.AppendInt(dst, rng.Int63n(n), 10)
			return finish(dst, asWire)
		}
	}
	countReq := func(dst []byte, _ *rand.Rand, _ *worker) []byte {
		return finish(get(dst, "/v1/Q/count"), false)
	}
	cursor := func(dst []byte, _ *rand.Rand, w *worker) []byte {
		dst = get(dst, "/v1/Q/enum/next?n=64&cursor=")
		dst = append(dst, w.cursor...)
		return finish(dst, false)
	}
	return []phase{
		{name: "access", build: access},
		{name: "count", build: countReq},
		{name: "batch16", build: batch(false)},
		{name: "batch16_wire", wire: true, build: batch(true)},
		{name: "page25", build: page(false)},
		{name: "page25_wire", wire: true, build: page(true)},
		{name: "cursor64", build: cursor},
		{name: "mixed", build: func(dst []byte, rng *rand.Rand, w *worker) []byte {
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				return access(dst, rng, w)
			case 4, 5:
				return batch(false)(dst, rng, w)
			case 6, 7:
				return page(false)(dst, rng, w)
			default:
				return countReq(dst, rng, w)
			}
		}},
	}
}

func phaseNames(ps []phase) string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.name
	}
	return strings.Join(names, ",")
}

// waitReady polls GET /readyz until the target reports 200, so traffic
// opens deterministically (a router answers 503 here until every shard
// daemon has scraped ready; a booting daemon until its indexes are built).
func waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				return fmt.Errorf("%s/readyz not ready after %v", base, timeout)
			}
			return fmt.Errorf("%s/readyz not ready after %v: %v", base, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// worker is one persistent client connection with reusable request and
// response scratch. Its round trips allocate nothing in steady state.
type worker struct {
	c      net.Conn
	br     *bufio.Reader
	req    []byte
	body   []byte
	rng    *rand.Rand
	cursor []byte // current enumeration cursor id (cursor64 phase)
}

func newWorker(addr string, seed int64) (*worker, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &worker{
		c:    c,
		br:   bufio.NewReaderSize(c, 64<<10),
		req:  make([]byte, 0, 1024),
		body: make([]byte, 0, 64<<10),
		rng:  rand.New(rand.NewSource(seed)),
	}, nil
}

var (
	bStatusOK      = []byte("HTTP/1.1 200")
	bContentLength = []byte("Content-Length: ")
	bDoneTrue      = []byte(`"done":true`)
)

// roundTrip issues one preformatted request and reads the full response
// body into the worker's scratch. It reports the HTTP status.
func (w *worker) roundTrip(req []byte) (status int, err error) {
	if _, err := w.c.Write(req); err != nil {
		return 0, err
	}
	clen := -1
	status = 0
	for first := true; ; first = false {
		line, err := w.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if first {
			if bytes.HasPrefix(line, bStatusOK) {
				status = 200
			} else if len(line) > 12 {
				status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
			}
			continue
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, bContentLength); ok {
			clen = 0
			for _, d := range v[:len(v)-2] {
				clen = clen*10 + int(d-'0')
			}
		}
	}
	if clen < 0 {
		return 0, fmt.Errorf("response without Content-Length")
	}
	if cap(w.body) < clen {
		w.body = make([]byte, clen)
	}
	w.body = w.body[:clen]
	if _, err := io.ReadFull(w.br, w.body); err != nil {
		return 0, err
	}
	return status, nil
}

// startCursor opens a fresh enumeration cursor for the worker (cold path:
// once per phase start and on exhaustion).
func (w *worker) startCursor() error {
	w.req = append(w.req[:0], "POST /v1/Q/enum/start?order=enum HTTP/1.1\r\nHost: l\r\n\r\n"...)
	status, err := w.roundTrip(w.req)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("enum/start = %d (%s)", status, w.body)
	}
	var resp struct {
		Cursor string `json:"cursor"`
	}
	if err := json.Unmarshal(w.body, &resp); err != nil {
		return err
	}
	w.cursor = append(w.cursor[:0], resp.Cursor...)
	return nil
}

// phaseResult aggregates one phase's measurements into a benchfmt Result.
func runPhase(addr string, p phase, o options) (benchfmt.Result, error) {
	workers := make([]*worker, o.conns)
	for i := range workers {
		w, err := newWorker(addr, o.seed+int64(i)*1e6+int64(len(p.name)))
		if err != nil {
			return benchfmt.Result{}, err
		}
		defer w.c.Close()
		workers[i] = w
		if p.name == "cursor64" {
			if err := w.startCursor(); err != nil {
				return benchfmt.Result{}, err
			}
		}
	}

	issue := func(w *worker) (int, error) {
		w.req = p.build(w.req[:0], w.rng, w)
		status, err := w.roundTrip(w.req)
		if err != nil {
			return 0, err
		}
		// Exhausted cursors are restarted off the clock path; the draw that
		// observed done still counts (it carried answers).
		if p.name == "cursor64" && (status != 200 || bytes.Contains(w.body, bDoneTrue)) {
			if err := w.startCursor(); err != nil {
				return 0, err
			}
		}
		return status, nil
	}

	// Warmup: grow every scratch buffer and pool to steady state before the
	// measured window.
	for _, w := range workers {
		for i := 0; i < 64; i++ {
			if status, err := issue(w); err != nil {
				return benchfmt.Result{}, err
			} else if status != 200 && p.name != "cursor64" {
				return benchfmt.Result{}, fmt.Errorf("warmup status %d (%s)", status, w.body)
			}
		}
	}

	lat := make([]int64, o.n)
	interval := time.Duration(float64(time.Second) / o.rate)
	var next atomic.Int64
	var failures atomic.Int64
	var lastDone atomic.Int64

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, len(workers))
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(o.n) {
					return
				}
				sched := start.Add(time.Duration(i) * interval)
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				status, err := issue(w)
				if err != nil {
					errs <- err
					return
				}
				if status != 200 {
					failures.Add(1)
				}
				done := time.Since(start)
				lat[i] = int64(done) - int64(sched.Sub(start))
				for {
					prev := lastDone.Load()
					if int64(done) <= prev || lastDone.CompareAndSwap(prev, int64(done)) {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	close(errs)
	if err := <-errs; err != nil {
		return benchfmt.Result{}, err
	}
	if f := failures.Load(); f > 0 {
		return benchfmt.Result{}, fmt.Errorf("%d non-200 responses", f)
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum int64
	for _, l := range lat {
		sum += l
	}
	n := float64(o.n)
	res := benchfmt.Result{
		Name: "BenchmarkServing/" + p.name,
		Runs: int64(o.n),
		Metrics: map[string]float64{
			"ns/op":     float64(sum) / n,
			"p50-ns":    float64(lat[o.n/2]),
			"p99-ns":    float64(lat[o.n*99/100]),
			"req/s":     n / (float64(lastDone.Load()) / float64(time.Second)),
			"B/op":      math.Floor(float64(after.TotalAlloc-before.TotalAlloc) / n),
			"allocs/op": math.Round(float64(after.Mallocs-before.Mallocs) / n),
		},
	}
	return res, nil
}

// cpuModel extracts the CPU model string the way `go test -bench` prints it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
