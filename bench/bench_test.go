package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
)

// The smoke runs use tiny datasets and a quarter-second window (the issue's
// one second would put the suite above its 15 s budget): they check the
// benchmark's plumbing — every metric present and finite, outputs checked,
// children and scratch directories gone — not its numbers.
const (
	smokeScale   = 0.02
	smokeSeconds = 0.25
)

// smokeScaleOf is the dataset scale of a workload's smoke run. TPC-H needs
// a little more than the synthetic joins: below scale factor 0.01 one of the
// paper's unions has no answers, which the dataset guard rightly refuses.
func smokeScaleOf(workload string) string {
	if workload == wPaper {
		return "0.2"
	}
	return fmt.Sprint(smokeScale)
}

func testEnv(t *testing.T) *env {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.cleanup()
		assertNothingLeft(t, e)
	})
	return e
}

// assertNothingLeft fails when a renumd child or a scratch directory of
// this process survived.
func assertNothingLeft(t *testing.T, e *env) {
	t.Helper()
	if n := len(e.procs); n != 0 {
		t.Errorf("%d children still registered", n)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*")
	for _, p := range procs {
		exe, err := os.Readlink(filepath.Join(p, "exe"))
		if err != nil || strings.TrimSuffix(exe, " (deleted)") != e.renumd() {
			continue
		}
		stat, _ := os.ReadFile(filepath.Join(p, "stat"))
		fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(fields) > 1 && fields[1] == fmt.Sprint(os.Getpid()) {
			t.Errorf("renumd child %s survived", filepath.Base(p))
		}
	}
	if len(e.dirs) != 0 {
		t.Errorf("%d scratch directories still registered", len(e.dirs))
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func better(m metricDef) string {
	if m.Higher {
		return "higher"
	}
	return "lower"
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps spec.go and the driver's file in step.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, spec.go has %q", i, w.Name, workloadNames[i])
		}
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why differs from spec.go's", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	e2e := driverEndToEnd()
	if len(doc.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(doc.EndToEnd), len(e2e))
	}
	seen := map[string]bool{}
	for i, m := range doc.EndToEnd {
		want := e2e[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != better(want) || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, spec.go has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (at most 128)", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != better(want) {
			t.Errorf("per_layer[%d] = %+v, spec.go has %+v", i, m, want)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q) breaks the naming rules", m.Name, m.Unit)
		}
		if seen[m.Name+"#"] {
			t.Errorf("metric %q is defined twice", m.Name)
		}
		seen[m.Name+"#"] = true
	}
}

type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runCLI runs the benchmark as the driver does and parses its last line.
func runCLI(t *testing.T, args ...string) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil && code == 0 {
		t.Fatalf("last line is not a result: %v\n%s\n%s", err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String() + stderr.String()
}

func checkMetricSet(t *testing.T, workload string, res resultLine, want []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics in the result line, want %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, want %q", workload, m.Name, got.Unit, m.Unit)
		case !finite(got.Value):
			t.Errorf("%s: %s = %v", workload, m.Name, got.Value)
		}
	}
}

// TestSmoke runs every workload the way the driver does, at a tiny scale.
func TestSmoke(t *testing.T) {
	e := testEnv(t) // builds the binaries once and checks nothing is left behind
	for _, w := range workloadNames {
		code, res, out := runCLI(t, "-workload", w, "-seed", "3", "-seconds", fmt.Sprint(smokeSeconds), "-scale", smokeScaleOf(w), "-trace", "0")
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s: exit %d, %+v\n%s", w, code, res, out)
		}
		checkMetricSet(t, w, res, driverEndToEnd())
		for _, m := range driverEndToEnd() {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w, m.Name, res.Metrics[m.Name].Value)
			}
		}
		// The table carries exactly the metrics the workload has.
		for _, m := range endToEnd {
			if m.on(w) != strings.Contains(out, " "+m.Name+" ") {
				t.Errorf("%s: %s in the table: %v, want %v", w, m.Name, !m.on(w), m.on(w))
			}
		}
		assertNothingLeft(t, e)
	}
}

// TestSmokeTraced runs the traced form of the workloads whose traced runs
// differ most: the in-process one, the updatable one and the routed one.
func TestSmokeTraced(t *testing.T) {
	e := testEnv(t)
	for _, w := range []string{wPaper, wUpdate, wRoute} {
		code, res, out := runCLI(t, "-workload", w, "-seed", "3", "-seconds", fmt.Sprint(smokeSeconds), "-scale", smokeScaleOf(w), "-trace", "1")
		if code != 0 || !res.Correct {
			t.Fatalf("%s: exit %d, %+v\n%s", w, code, res, out)
		}
		checkMetricSet(t, w, res, perLayer)
		for _, m := range perLayer {
			if !m.on(w) && res.Metrics[m.Name].Value != 0 {
				t.Errorf("%s: %s = %v on a workload that does not run the layer", w, m.Name, res.Metrics[m.Name].Value)
			}
		}
		trace := filepath.Join(e.root, "bench", "out", "trace-"+w+".json")
		if st, err := os.Stat(trace); err != nil || st.Size() == 0 {
			t.Errorf("%s: no span file at %s: %v", w, trace, err)
		}
		if w == wPaper {
			continue
		}
		// On every ladder the self times add up to the outermost rung.
		sum, outer := res.Metrics["access.call_us"].Value, res.Metrics["renumd.rtt_us"].Value
		for _, name := range []string{"handle.self_us", "server.handler_self_us", "server.transport_self_us", "renumd.config_self_us"} {
			sum += res.Metrics[name].Value
		}
		if w == wRoute {
			sum, outer = sum+res.Metrics["router.hop_self_us"].Value, res.Metrics["router.rtt_us"].Value
		}
		if sum < 0.9*outer || sum > 1.1*outer {
			t.Errorf("%s: self times add up to %.1f µs, the outermost rung takes %.1f µs", w, sum, outer)
		}
		assertNothingLeft(t, e)
	}
}

// TestCorruptedReplyFailsRun overwrites one byte of one reply on its way to
// the oracle: the run must report a failure, and still clean up. The byte is
// a digit turned into a letter — a cell no relation holds, or a number no
// parser accepts — because the updatable workload's replies have no fixed
// bytes and a changed digit of its running count could pass for another
// moment's count.
func TestCorruptedReplyFailsRun(t *testing.T) {
	e := testEnv(t)
	for _, w := range []string{wPoint, wUpdate} {
		var corrupted atomic.Bool // the connections check replies concurrently
		o := options{seed: 3, seconds: smokeSeconds, scale: smokeScale, tamper: func(body []byte) {
			if i := bytes.IndexAny(body, "0123456789"); i >= 0 && corrupted.CompareAndSwap(false, true) {
				body[i] = 'x'
			}
		}}
		res, err := runWorkload(e, w, o)
		if err != nil {
			t.Fatal(err)
		}
		if !corrupted.Load() || res.failed == 0 {
			t.Errorf("%s: corrupted=%v but the run reports %d failures", w, corrupted.Load(), res.failed)
		}
		var out bytes.Buffer
		if err := res.printJSON(&out, false); err != nil || !strings.Contains(out.String(), `"correct":false`) {
			t.Errorf("%s: result line %q, %v", w, out.String(), err)
		}
		assertNothingLeft(t, e)
	}
}

// TestFailedBootCleansUp makes a deployment fail half way (the second
// daemon cannot boot) and checks that the first one does not survive.
func TestFailedBootCleansUp(t *testing.T) {
	e := testEnv(t)
	spec := *serveSpecs[wPoint]
	spec.boot = func(e *env, ds *dataset, dir string, first bool) ([]*proc, error) {
		if _, err := bootOne(e, tableArgs(ds)...); err != nil {
			return nil, err
		}
		return bootOne(e, "-snapshot-dir", filepath.Join(dir, "missing"))
	}
	if _, err := runServe(e, &spec, options{seed: 3, seconds: smokeSeconds, scale: smokeScale}); err == nil {
		t.Fatal("a deployment whose second daemon cannot boot must fail")
	}
	e.cleanup()
	assertNothingLeft(t, e)
}

func TestDatasetGuard(t *testing.T) {
	for _, n := range []int64{0, -1600193386845666118, 1<<53 + 1} {
		if err := guardCount(n); !errors.Is(err, errCountRange) {
			t.Errorf("guardCount(%d) = %v, want errCountRange", n, err)
		}
	}
	for _, n := range []int64{1, 1 << 53} {
		if err := guardCount(n); err != nil {
			t.Errorf("guardCount(%d) = %v", n, err)
		}
	}
}

// TestClientFramings reads both reply framings the stack produces:
// Content-Length (the fast loop) and chunked (net/http above 2 KiB).
func TestClientFramings(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 1024)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/chunked" {
			io.WriteString(w, big[:5000])
			w.(http.Flusher).Flush()
			io.WriteString(w, big[5000:])
			return
		}
		w.Header().Set("Content-Length", "2")
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	var c client
	defer c.close()
	for i := 0; i < 2; i++ {
		status, body, err := c.do(addr, simpleRequest("GET", "/chunked"))
		if err != nil || status != 200 || string(body) != big {
			t.Fatalf("chunked: status %d, %d bytes, %v", status, len(body), err)
		}
		status, body, err = c.do(addr, simpleRequest("GET", "/plain"))
		if err != nil || status != 200 || string(body) != "ok" {
			t.Fatalf("plain: status %d, %q, %v", status, body, err)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	before := scrape{`h_bucket{e="a",le="1"}`: 10, `h_bucket{e="a",le="2"}`: 10, `h_bucket{e="a",le="+Inf"}`: 10}
	after := scrape{`h_bucket{e="a",le="1"}`: 10, `h_bucket{e="a",le="2"}`: 110, `h_bucket{e="a",le="+Inf"}`: 110}
	if got := after.histQuantile(before, "h", `e="a"`, 0.5); got != 1.5 {
		t.Errorf("median of 100 observations in (1, 2] = %v, want 1.5", got)
	}
}
