// HTTP traffic: hammer a renumd-style server with mixed probe traffic.
//
// The scenario is the serving tier under load: a star-join index is built
// once, put behind the HTTP API (the same internal/server handler that
// cmd/renumd serves), and then N client goroutines fire a mixed workload —
// point accesses, explicit batches, pages, counts and samples — over real
// sockets. Every request is timed on the client, into one histogram per
// endpoint, and the example ends by printing what a client saw: count,
// errors and latency quantiles per endpoint.
//
// Run with: go run ./examples/http_traffic [-clients 8] [-ops 400]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/internal/wire"
)

func main() {
	var (
		clients = flag.Int("clients", 8, "concurrent client goroutines")
		ops     = flag.Int("ops", 400, "requests per client")
		tuples  = flag.Int("tuples", 20_000, "tuples per relation")
	)
	flag.Parse()

	// --- Build the dataset and the serving stack --------------------------
	db, q, err := synth.Star(synth.Config{
		Relations: 4, TuplesPerRelation: *tuples, KeyDomain: 2_000, SkewS: 1.2, Seed: 7,
	})
	if err != nil {
		fail(err)
	}
	// Render the star CQ as program text for the registry (the daemon path).
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
		fail(err)
	}
	entry, _ := reg.Lookup("Q")
	n := entry.Count()
	fmt.Printf("index built in %v: %d answers over %d tuples\n", time.Since(t0).Round(time.Millisecond), n, db.Size())

	srv := server.New(reg, server.Config{})
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	// Open traffic only once /readyz reports 200 — never sleep-and-fire.
	// Against this in-process server it is one round trip; the same loop
	// pointed at a renumd -router waits for the whole shard fleet.
	if err := waitReady(base, 10*time.Second); err != nil {
		fail(err)
	}
	fmt.Printf("serving on %s\n", base)

	// --- Mixed traffic ----------------------------------------------------
	// Client-side instruments, one set per endpoint, resolved before the
	// clients start so recording is lock-free.
	type clientStats struct {
		lat    obs.Histogram
		errors obs.Counter
	}
	endpoints := []string{"access", "batch", "page", "sample", "count"}
	stats := make(map[string]*clientStats, len(endpoints))
	for _, ep := range endpoints {
		stats[ep] = new(clientStats)
	}
	var wireRows, wireBytes atomic.Int64
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *clients}}
	// get times one request, start to last body byte. asWire asks for the
	// binary wire format (Accept negotiation) and decodes the frame with
	// the shared client codec, checksum included.
	get := func(ep, url string, asWire bool) {
		st := stats[ep]
		t0 := time.Now()
		ok := func() bool {
			req, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				return false
			}
			if asWire {
				req.Header.Set("Accept", wire.ContentType)
			}
			resp, err := client.Do(req)
			if err != nil {
				return false
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				return false
			}
			if !asWire {
				return true
			}
			if resp.Header.Get("Content-Type") != wire.ContentType {
				return false
			}
			h, err := wire.ParseFunc(body, nil)
			if err != nil {
				return false
			}
			wireRows.Add(int64(h.Rows))
			wireBytes.Add(int64(len(body)))
			return true
		}()
		st.lat.Record(time.Since(t0))
		if !ok {
			st.errors.Inc()
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < *ops; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // point lookups dominate
					get("access", fmt.Sprintf("%s/v1/Q/access?j=%d", base, rng.Int63n(n)), false)
				case 4, 5:
					js := make([]string, 16)
					for k := range js {
						js[k] = fmt.Sprint(rng.Int63n(n))
					}
					url := fmt.Sprintf("%s/v1/Q/batch?js=%s", base, strings.Join(js, ","))
					get("batch", url, rng.Intn(2) == 0) // half the batches ride the binary format
				case 6:
					url := fmt.Sprintf("%s/v1/Q/page?offset=%d&limit=25", base, rng.Int63n(n))
					get("page", url, rng.Intn(2) == 0)
				case 7:
					get("sample", fmt.Sprintf("%s/v1/Q/sample?k=8&seed=%d", base, rng.Int63()), false)
				default:
					get("count", base+"/v1/Q/count", false)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var requests, failures uint64
	for _, st := range stats {
		requests += st.lat.Count()
		failures += st.errors.Value()
	}
	fmt.Printf("\n%d requests from %d clients in %v (%.0f req/s), %d failures\n",
		requests, *clients, elapsed.Round(time.Millisecond),
		float64(requests)/elapsed.Seconds(), failures)
	if rows := wireRows.Load(); rows > 0 {
		fmt.Printf("binary wire format: %d rows decoded from %d frame bytes (CRC-checked)\n",
			rows, wireBytes.Load())
	}

	// --- Report what the clients saw --------------------------------------
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Printf("\n%-10s %8s %8s %9s %9s %9s %9s\n", "endpoint", "count", "errors", "p50 ms", "p90 ms", "p99 ms", "max ms")
	for _, ep := range endpoints {
		st := stats[ep]
		s := st.lat.Snapshot()
		fmt.Printf("%-10s %8d %8d %9.3f %9.3f %9.3f %9.3f\n",
			ep, s.Count, st.errors.Value(), ms(s.Quantile(0.50)), ms(s.Quantile(0.90)),
			ms(s.Quantile(0.99)), ms(time.Duration(s.MaxNs)))
	}
}

// waitReady polls GET /readyz until the server reports 200.
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
			return fmt.Errorf("%s/readyz not ready after %v (%v)", base, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "http_traffic:", err)
	os.Exit(1)
}
