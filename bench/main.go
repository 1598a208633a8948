// Command bench is the repository's benchmark: five workloads, from the
// paper's in-process experiment to a routed two-shard deployment of the
// shipped renumd binary, each reporting end-to-end metrics (and, with
// -trace 1, per-layer metrics) while checking every output against an
// in-process oracle. README.md in this directory explains the choices;
// BENCHMARK.json at the repository root is the driver's view of it.
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-agree]
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs all five")
		seed     = fs.Int64("seed", 1, "seed of every generated input and request sequence")
		seconds  = fs.Float64("seconds", 15, "length of the measured window of each workload")
		trace    = fs.Int("trace", 0, "1: the traced run — per-layer metrics, spans written to bench/out/")
		agree    = fs.Bool("agree", false, "run the full set twice and compare the medians against the bounds")
		scale    = fs.Float64("scale", 1, "multiply every dataset size (the recorded numbers use 1)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) || (*agree && *trace == 1) {
		fmt.Fprintln(stderr, "bench: -seconds and -scale must be positive, -trace 0 or 1, and -agree is untraced")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	e, err := newEnv(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// Children and scratch directories go away on every exit path.
	defer e.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	if err := e.build(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1}
	printContext(stdout, e, o)
	if *agree {
		return runAgree(e, o, names, stdout, stderr)
	}
	status := 0
	for _, name := range names {
		res, err := runWorkload(e, name, o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		res.print(stdout, o.trace)
		if res.failed > 0 {
			status = 1
		}
		if len(names) == 1 {
			if err := res.printJSON(stdout, o.trace); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
		}
	}
	return status
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(e *env, name string, o options) (res *result, err error) {
	spec := serveSpecs[name] // nil for paper_tpch, the one workload without a socket
	switch {
	case o.trace:
		res, err = traceRun(e, name, spec, o)
	case spec == nil:
		res, err = runPaper(o)
	default:
		res, err = runServe(e, spec, o)
	}
	if err != nil {
		return nil, err
	}
	res.e2e["fail_share"] = single(float64(res.failed)/float64(max(res.attempted, 1)), res.attempted)
	return res, nil
}

// printContext records what every result depends on besides the code.
func printContext(w io.Writer, e *env, o options) {
	fmt.Fprintf(w, "# cpu: %s; nproc %d; %s; commit %s\n", cpuModel(), runtime.NumCPU(), runtime.Version(), e.commit())
	fmt.Fprintf(w, "# seed %d; window %.0f s after %.0f s warm-up, %d slices; C = %d closed-loop connections; scale %g\n",
		o.seed, o.seconds, warmup.Seconds(), nSlices, clientCount(), o.scale)
	fmt.Fprintf(w, "# renumd runs with its shipped defaults: -http fast, -coalesce-window 500µs, -planner cost, answer cache off, -wal-fsync always\n")
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// print writes the human-readable table: every metric by name with its
// unit, the range of its slice values and the sample count behind it.
func (r *result) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "\n== %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-18s %-32s %16s %-6s [%s .. %s] n=%d", r.workload, m.Name, fmtNum(v.V), m.Unit, fmtNum(v.Lo), fmtNum(v.Hi), v.N)
		if m.Moves != "" {
			fmt.Fprintf(w, "  -> %s", m.Moves)
		}
		fmt.Fprintln(w)
	}
	for _, msg := range r.errs {
		fmt.Fprintf(w, "FAIL %s: %s\n", r.workload, msg)
	}
}

func fmtNum(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// printJSON writes the driver's result line.
func (r *result) printJSON(w io.Writer, traced bool) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric)
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = jsonMetric{Value: r.layer[m.Name].V, Unit: m.Unit} // 0 where the workload does not run the layer
		}
	} else {
		for _, m := range driverEndToEnd() {
			metrics[m.Name] = jsonMetric{Value: r.driverValue(m), Unit: m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, metrics})
	if err != nil {
		// A NaN slipped into a metric: that is a failed run, not a result.
		return fmt.Errorf("cannot encode the result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
