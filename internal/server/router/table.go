package router

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"

	"repro"
	"repro/internal/server"
)

// table is one immutable view of the shard fleet: which daemons serve, what
// queries they agree on, and how each query's global position space maps
// onto per-shard windows. Readers load it atomically; the scrape loop swaps
// in successors.
type table struct {
	shards  []*shard // in fan-out (= global concatenation) order
	gen     uint64   // max generation across shards
	queries map[string]*route
	names   []string // sorted query names
}

// route is the prefix-sum routing state for one query: shard i serves the
// contiguous global position window [starts[i], starts[i]+counts[i]).
// Concatenating the shards' local enumerations in shard order reproduces the
// unsharded global order (the library's partition contract), so global
// position j lives on the first shard whose window ends past j, at local
// j-starts[shard]. The table is immutable, so a binary search over starts is
// all the routing it needs.
type route struct {
	meta   server.Meta // shard 0's, its count aside
	counts []int64
	starts []int64 // len(counts)+1 prefix sums; starts[len(counts)] is total
	total  int64
	// The row legs' targets up to their first value, rendered once.
	batchPath, pagePath string
	// src is the query as a Source over this table, built once so a request
	// resolves it without allocating.
	src remote
}

// locate routes a global position 0 ≤ j < total to (shard, local
// position): the smallest shard i with starts[i+1] > j, which skips shards
// whose count is 0.
func (rt *route) locate(j int64) (shard int, local int64) {
	s := sort.Search(len(rt.counts), func(i int) bool { return rt.starts[i+1] > j })
	return s, j - rt.starts[s]
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
// this shard's count. Every shard must list each of its queries once, by a
// name that is one path segment, and all shards must serve the same query
// set with the same heads — a disagreement means the fleet was booted
// inconsistently and the router refuses the table rather than serving torn
// answers.
func (r *Router) scrape(ctx context.Context) (*table, error) {
	bases, err := r.loadShards()
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("no shards configured")
	}
	t := &table{shards: make([]*shard, len(bases)), queries: map[string]*route{}}
	for i, base := range bases {
		sh, err := r.shard(base)
		if err != nil {
			return nil, &shardError{shard: base, err: err}
		}
		t.shards[i] = sh
		var ready shardReady
		if err := sh.doJSON(ctx, http.MethodGet, "/readyz", nil, &ready); err != nil {
			return nil, err
		}
		if !ready.Ready {
			return nil, &shardError{shard: base, err: fmt.Errorf("not ready (generation %d)", ready.Generation)}
		}
		if ready.Generation > t.gen {
			t.gen = ready.Generation
		}
		var list shardList
		if err := sh.doJSON(ctx, http.MethodGet, "/v1", nil, &list); err != nil {
			return nil, err
		}
		names := slices.Sorted(slices.Values(list.Queries))
		if err := checkNames(names); err != nil {
			return nil, &shardError{shard: base, err: err}
		}
		if i == 0 {
			t.names = names
		} else if !slices.Equal(names, t.names) {
			return nil, &shardError{shard: base, err: fmt.Errorf("serves queries %q, shard %s serves %q", names, bases[0], t.names)}
		}
		for _, name := range list.Queries {
			var meta server.Meta
			if err := sh.doJSON(ctx, http.MethodGet, "/v1/"+name, nil, &meta); err != nil {
				return nil, err
			}
			rt := t.queries[name]
			if rt == nil {
				meta.Name = name // the name the paths below are built from
				rt = &route{
					meta:      meta,
					counts:    make([]int64, len(bases)),
					batchPath: "/v1/" + name + "/batch?js=",
					pagePath:  "/v1/" + name + "/page?offset=",
				}
				t.queries[name] = rt
			} else if !slices.Equal(meta.Head, rt.meta.Head) {
				return nil, &shardError{shard: base, err: fmt.Errorf("query %s head %v disagrees with shard %s head %v", name, meta.Head, bases[0], rt.meta.Head)}
			}
			if meta.Count < 0 {
				return nil, &shardError{shard: base, err: fmt.Errorf("query %s reports count %d", name, meta.Count)}
			}
			rt.counts[i] = meta.Count
		}
	}
	for _, rt := range t.queries {
		rt.starts = make([]int64, len(rt.counts)+1)
		for i, c := range rt.counts {
			// The cross-process twin of the library's overflow check: past
			// 2⁶³−1 the prefix sums would wrap and locate would route garbage.
			if c > math.MaxInt64-rt.starts[i] {
				return nil, &shardError{shard: bases[i], err: fmt.Errorf("query %s: count %d takes the fleet's total past int64: %w", rt.meta.Name, c, renum.ErrCountOverflow)}
			}
			rt.starts[i+1] = rt.starts[i] + c
		}
		rt.total = rt.starts[len(rt.counts)]
		rt.src = remote{r: r, t: t, rt: rt}
	}
	return t, nil
}

// checkNames refuses a shard's sorted query list unless it names each
// query once and every name is one path segment: the router builds
// /v1/{name} paths from them, and a name that spans segments, or ends or
// escapes the path, would route to some other resource.
func checkNames(sorted []string) error {
	for k, name := range sorted {
		if k > 0 && name == sorted[k-1] {
			return fmt.Errorf("lists query %q twice", name)
		}
		if name == "" || name == "." || name == ".." || strings.ContainsFunc(name, func(r rune) bool {
			return r <= ' ' || r == 0x7f || strings.ContainsRune("/?#%", r)
		}) {
			return fmt.Errorf("query name %q is not one path segment", name)
		}
	}
	return nil
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
