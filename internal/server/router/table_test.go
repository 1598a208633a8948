package router

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// bootStubs serves each stub on its own socket and returns a router over
// them, in order, with their URLs.
func bootStubs(t testing.TB, stubs ...http.Handler) (*Router, []string) {
	t.Helper()
	var urls []string
	for _, s := range stubs {
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt := New(Config{Shards: urls})
	t.Cleanup(rt.Close)
	return rt, urls
}

// refuses requires the first refresh of rt to fail naming shard, and the
// router to stay not ready, answering a probe with 503.
func refuses(t *testing.T, rt *Router, shard string) {
	t.Helper()
	err := rt.Refresh(context.Background())
	if err == nil || !strings.Contains(err.Error(), "shard "+shard) {
		t.Fatalf("refresh: err = %v, want one naming shard %s", err, shard)
	}
	if rt.Ready() {
		t.Fatal("router ready with no table")
	}
	if _, code := exchange(rt.Handler(), "GET", "/v1/Q/count", "", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("probe with no table: %d, want 503", code)
	}
}

// TestScrapeRefusesQueryListMismatch: every shard must list each query
// once, and the same set as shard 0. Equal lengths are not enough: with
// ["Q","R"] on shard 0 and ["Q","Q"] on shard 1, R would be served with
// shard 1's count silently left at 0.
func TestScrapeRefusesQueryListMismatch(t *testing.T) {
	for name, lists := range map[string][2][]string{
		"duplicate on shard 1": {{"Q", "R"}, {"Q", "Q"}},
		"duplicate on shard 0": {{"Q", "Q"}, {"Q", "R"}},
		"different set":        {{"Q", "R"}, {"Q", "S"}},
		"shard 1 lists more":   {{"Q"}, {"Q", "R"}},
		"shard 1 lists fewer":  {{"Q", "R"}, {"R"}},
	} {
		t.Run(name, func(t *testing.T) {
			rt, urls := bootStubs(t, &stubShard{count: 2, queries: lists[0]}, &stubShard{count: 3, queries: lists[1]})
			bad := urls[1]
			if slices.Contains(lists[0][1:], lists[0][0]) {
				bad = urls[0]
			}
			refuses(t, rt, bad)
		})
	}

	// The same set in another order routes every query over both shards.
	rt, _ := bootStubs(t, &stubShard{count: 2, queries: []string{"Q", "R"}}, &stubShard{count: 3, queries: []string{"R", "Q"}})
	if err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"Q", "R"} {
		if got := count(t, rt.Handler(), q); got != 5 {
			t.Fatalf("%s count = %d, want 5", q, got)
		}
	}
}

// TestScrapeRefusesMultiSegmentNames: the router builds /v1/{name} paths
// from the names a shard lists, so a name must be one path segment.
func TestScrapeRefusesMultiSegmentNames(t *testing.T) {
	for _, name := range []string{"", ".", "..", "a/b", "Q?x", "Q#x", "Q%2F", "Q x", "Q\x00"} {
		queries := []string{"Q", name}
		rt, urls := bootStubs(t, &stubShard{count: 1, queries: queries}, &stubShard{count: 1, queries: queries})
		t.Run(name, func(t *testing.T) { refuses(t, rt, urls[0]) })
	}
}

// TestScrapeComparesHeadsExactly: heads are compared name by name, so
// ["x,y"] and ["x","y"] disagree.
func TestScrapeComparesHeadsExactly(t *testing.T) {
	rt, urls := bootStubs(t, &stubShard{count: 1, head: []string{"x,y"}}, &stubShard{count: 1, head: []string{"x", "y"}})
	refuses(t, rt, urls[1])
}

// catalogShard answers a scrape with the bodies it holds: /readyz, /v1,
// and one body for every /v1/{query}.
type catalogShard struct{ ready, list, meta string }

func (s catalogShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/readyz":
		w.Write([]byte(s.ready))
	case r.URL.Path == "/v1":
		w.Write([]byte(s.list))
	case strings.HasPrefix(r.URL.Path, "/v1/"):
		w.Write([]byte(s.meta))
	default:
		http.NotFound(w, r)
	}
}

// FuzzScrapeCatalog: two shards answer the scrape with arbitrary bodies.
// Refresh either fails, leaving the router not ready and answering probes
// with 503, or builds a table in which every name is on every shard,
// starts never decreases, total is the sum of the counts, and locate stays
// in range.
func FuzzScrapeCatalog(f *testing.F) {
	const (
		ready = `{"generation":1,"ready":true}`
		list  = `{"generation":1,"queries":["Q","R"]}`
		meta  = `{"name":"Q","kind":"cq","count":3,"head":["x","y"]}`
	)
	f.Add(ready, list, meta, ready, list, meta)
	f.Add(ready, list, meta, ready, `{"queries":["R","Q"]}`, `{"count":0,"head":["x","y"]}`)
	f.Add(ready, list, meta, ready, `{"queries":["Q","Q"]}`, meta)
	f.Add(ready, list, meta, ready, list, `{"count":3,"head":["x,y"]}`)
	f.Add(ready, list, meta, ready, list, `{"count":-1,"head":["x","y"]}`)
	f.Add(ready, list, `{"count":9223372036854775807,"head":["x","y"]}`, ready, list, meta)
	f.Add(ready, `{"queries":["a/b"]}`, meta, ready, `{"queries":["a/b"]}`, meta)
	f.Add(ready, `{"queries":[]}`, meta, ready, `{"queries":[]}`, meta)
	f.Add(`{"ready":false}`, list, meta, ready, list, meta)
	f.Add(ready, list, meta, "", "{", "null")
	f.Fuzz(func(t *testing.T, ready0, list0, meta0, ready1, list1, meta1 string) {
		rt, _ := bootStubs(t, catalogShard{ready0, list0, meta0}, catalogShard{ready1, list1, meta1})
		if err := rt.Refresh(context.Background()); err != nil {
			if rt.Ready() {
				t.Fatalf("refresh failed (%v) and the router is ready", err)
			}
			if _, code := exchange(rt.Handler(), "GET", "/v1/Q/count", "", ""); code != http.StatusServiceUnavailable {
				t.Fatalf("refresh failed (%v) and a probe answered %d, want 503", err, code)
			}
			return
		}
		tb := rt.table.Load()
		for i, body := range []string{list0, list1} {
			var l shardList
			if err := json.Unmarshal([]byte(body), &l); err != nil {
				t.Fatalf("shard %d: the table was built from a list that does not parse: %v", i, err)
			}
			if got := slices.Sorted(slices.Values(l.Queries)); !slices.Equal(got, tb.names) {
				t.Fatalf("shard %d lists %q, the table routes %q", i, l.Queries, tb.names)
			}
		}
		if len(tb.queries) != len(tb.names) {
			t.Fatalf("%d routes for %d names", len(tb.queries), len(tb.names))
		}
		for _, name := range tb.names {
			r := tb.queries[name]
			if r == nil || len(r.counts) != 2 || len(r.starts) != 3 || r.starts[0] != 0 {
				t.Fatalf("query %q: route %+v", name, r)
			}
			for i, c := range r.counts {
				if c < 0 || r.starts[i+1] < r.starts[i] || r.starts[i+1]-r.starts[i] != c {
					t.Fatalf("query %q: counts %v, starts %v", name, r.counts, r.starts)
				}
			}
			if r.total != r.starts[2] || r.total-r.counts[0] != r.counts[1] {
				t.Fatalf("query %q: total %d, counts %v", name, r.total, r.counts)
			}
			for _, j := range []int64{0, r.total / 2, r.total - 1} {
				if j < 0 || j >= r.total {
					continue
				}
				if sh, local := r.locate(j); sh < 0 || sh >= 2 || local < 0 || local >= r.counts[sh] {
					t.Fatalf("query %q: locate(%d) = (%d, %d), counts %v", name, j, sh, local, r.counts)
				}
			}
		}
	})
}
