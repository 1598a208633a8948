package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/fenwick"
)

// table is one immutable view of the shard fleet: which daemons serve, what
// queries they agree on, and how each query's global position space maps
// onto per-shard windows. Readers load it atomically; the scrape loop swaps
// in successors.
type table struct {
	shards  []string // base URLs, in fan-out (= global concatenation) order
	gen     uint64   // max generation across shards
	queries map[string]*route
	names   []string // sorted query names
}

// route is the prefix-sum routing state for one query: shard i serves the
// contiguous global position window [starts[i], starts[i]+counts[i]).
// Concatenating the shards' local enumerations in shard order reproduces the
// unsharded global order (the library's partition contract), so global
// position j lives on shard tree.FindPrefix(j) at local j-starts[shard].
type route struct {
	name   string
	kind   string
	text   string
	head   []string
	caps   []string
	counts []int64
	starts []int64
	tree   *fenwick.Tree
	total  int64
}

// locate routes a global position to (shard, local position).
func (rt *route) locate(j int64) (shard int, local int64) {
	s := rt.tree.FindPrefix(j)
	return s, j - rt.starts[s]
}

// shardMeta is the /v1/{query} response a shard daemon serves.
type shardMeta struct {
	Name         string   `json:"name"`
	Kind         string   `json:"kind"`
	Count        int64    `json:"count"`
	Head         []string `json:"head"`
	Query        string   `json:"query"`
	Capabilities []string `json:"capabilities"`
}

type shardList struct {
	Generation uint64   `json:"generation"`
	Queries    []string `json:"queries"`
}

type shardReady struct {
	Generation uint64 `json:"generation"`
	Ready      bool   `json:"ready"`
}

// loadShards resolves the fleet: the static list, or (when ShardsFile is
// set) the newline-separated URL list at that path — typically a file the
// operator drops into the shared snapshot dir, so the fleet can be re-shaped
// without restarting the router (the scrape loop re-reads it every period).
func (r *Router) loadShards() ([]string, error) {
	if r.cfg.ShardsFile == "" {
		return r.cfg.Shards, nil
	}
	data, err := os.ReadFile(r.cfg.ShardsFile)
	if err != nil {
		return nil, fmt.Errorf("shards file: %w", err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, nil
}

// scrape builds a fresh table by interrogating every shard: /readyz must
// report ready, /v1 lists the queries, /v1/{query} supplies head, kind and
// this shard's count. All shards must serve the same query set with the
// same head — a disagreement means the fleet was booted inconsistently and
// the router refuses the table rather than serving torn answers.
func (r *Router) scrape(ctx context.Context) (*table, error) {
	shards, err := r.loadShards()
	if err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("no shards configured")
	}
	t := &table{shards: shards, queries: map[string]*route{}}
	for i, base := range shards {
		var ready shardReady
		if err := r.getJSON(ctx, base, "/readyz", &ready); err != nil {
			return nil, err
		}
		if !ready.Ready {
			return nil, &shardError{shard: base, err: fmt.Errorf("not ready (generation %d)", ready.Generation)}
		}
		if ready.Generation > t.gen {
			t.gen = ready.Generation
		}
		var list shardList
		if err := r.getJSON(ctx, base, "/v1", &list); err != nil {
			return nil, err
		}
		if i == 0 {
			t.names = append([]string{}, list.Queries...)
			sort.Strings(t.names)
		} else if len(list.Queries) != len(t.names) {
			return nil, &shardError{shard: base, err: fmt.Errorf("serves %d queries, shard %s serves %d", len(list.Queries), shards[0], len(t.names))}
		}
		for _, name := range list.Queries {
			var meta shardMeta
			if err := r.getJSON(ctx, base, "/v1/"+name, &meta); err != nil {
				return nil, err
			}
			rt := t.queries[name]
			if rt == nil {
				if i != 0 {
					return nil, &shardError{shard: base, err: fmt.Errorf("serves query %s unknown to shard %s", name, shards[0])}
				}
				rt = &route{
					name:   name,
					kind:   meta.Kind,
					text:   meta.Query,
					head:   meta.Head,
					caps:   meta.Capabilities,
					counts: make([]int64, len(shards)),
				}
				t.queries[name] = rt
			} else if strings.Join(meta.Head, ",") != strings.Join(rt.head, ",") {
				return nil, &shardError{shard: base, err: fmt.Errorf("query %s head %v disagrees with shard %s head %v", name, meta.Head, shards[0], rt.head)}
			}
			rt.counts[i] = meta.Count
		}
	}
	for _, rt := range t.queries {
		rt.starts = make([]int64, len(rt.counts)+1)
		for i, c := range rt.counts {
			rt.starts[i+1] = rt.starts[i] + c
		}
		rt.tree = fenwick.New(rt.counts)
		rt.total = rt.tree.Total()
	}
	return t, nil
}

// shardError is the typed fault for a shard-hop failure: the router's 502
// names the failing daemon so an operator reads the blast radius straight
// off the error body.
type shardError struct {
	shard string
	err   error
}

func (e *shardError) Error() string { return fmt.Sprintf("shard %s: %v", e.shard, e.err) }

func (e *shardError) Unwrap() error { return e.err }

// HTTPStatus: the shard hop failed — the router is fine, the upstream is
// not.
func (e *shardError) HTTPStatus() int { return http.StatusBadGateway }

// ------------------------------------------------------------- shard client

// do performs one HTTP exchange with a shard, instrumented: the per-shard
// request counter, latency histogram and error counter all tick here, and a
// failure marks the shard unhealthy (flipping /readyz to 503) until the next
// successful scrape proves it back.
func (r *Router) do(req *http.Request, base string) (*http.Response, error) {
	m := r.shardMetrics(base)
	m.reqs.Inc()
	t0 := time.Now()
	resp, err := r.client.Do(req)
	m.lat.Record(time.Since(t0))
	if err != nil {
		m.errs.Inc()
		r.markUnhealthy(base)
		return nil, &shardError{shard: base, err: err}
	}
	return resp, nil
}

// fetch runs one request and returns the response body, mapping non-2xx
// responses (with their JSON error bodies) to shardError.
func (r *Router) fetch(ctx context.Context, method, base, path, accept string, body io.Reader) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.do(req, base)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		r.shardMetrics(base).errs.Inc()
		r.markUnhealthy(base)
		return nil, &shardError{shard: base, err: err}
	}
	if resp.StatusCode/100 != 2 {
		var eb struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		err := &shardError{shard: base, err: fmt.Errorf("status %d: %s", resp.StatusCode, msg)}
		// 4xx from a shard is the router's routing bug or a client input the
		// shard rejected — not a fleet fault; only 5xx flips health.
		if resp.StatusCode >= 500 {
			r.shardMetrics(base).errs.Inc()
			r.markUnhealthy(base)
		}
		return nil, err
	}
	return data, nil
}

func (r *Router) getJSON(ctx context.Context, base, path string, v any) error {
	data, err := r.fetch(ctx, http.MethodGet, base, path, "", nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return &shardError{shard: base, err: fmt.Errorf("%s: %v", path, err)}
	}
	return nil
}
