// Request-scoped tracing for /debug/traces.
//
// A request is traced only when the client sends X-Request-Id — the hot
// benchmark paths never do, so the untraced request stays exactly as
// allocation-free as before. Traced requests use pooled fixed-shape
// records (a [64]byte id buffer, an [8]-span array of static-string
// names), pushed into a bounded mutex ring whose evictions recycle back
// into the pool; steady-state tracing therefore allocates only what the
// stdlib context plumbing does on the mux path and nothing at all on the
// fast loop. The record also carries the id across the router's hop: every
// shard leg sends RequestID(ctx).
package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

const (
	traceMaxSpans   = 8
	traceIDMax      = 64 // longer client ids are truncated, not rejected
	defaultTraceCap = 256
)

// traceSpan is one timed section inside a request, relative to its start.
type traceSpan struct {
	name  string // static string: "probe", "build", ...
	offNs int64
	durNs int64
}

// traceRec is one traced request. Fixed shape; pooled.
type traceRec struct {
	id       [traceIDMax]byte
	idLen    int
	endpoint string // static route name
	query    string // entry name (shares the snapshot's string)
	start    time.Time
	durNs    int64
	status   int
	spans    [traceMaxSpans]traceSpan
	nspans   int
}

// span records one timed section. Safe to call with a nil receiver so
// handlers do not branch; start is the section's own clock origin.
func (tr *traceRec) span(name string, start time.Time, d time.Duration) {
	if tr == nil || tr.nspans >= traceMaxSpans {
		return
	}
	tr.spans[tr.nspans] = traceSpan{
		name:  name,
		offNs: start.Sub(tr.start).Nanoseconds(),
		durNs: d.Nanoseconds(),
	}
	tr.nspans++
}

func (tr *traceRec) finish(status int, d time.Duration) {
	tr.status = status
	tr.durNs = d.Nanoseconds()
}

// traceStore is the bounded in-memory ring behind /debug/traces.
type traceStore struct {
	pool    sync.Pool
	evicted atomic.Uint64
	mu      sync.Mutex
	ring    []*traceRec
	next    int
	n       int
}

func newTraceStore(capacity int) *traceStore {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &traceStore{
		pool: sync.Pool{New: func() any { return new(traceRec) }},
		ring: make([]*traceRec, capacity),
	}
}

// beginTrace starts a trace for a request carrying id — a header string on
// the mux, raw bytes in the fast loop, where id may alias the network read
// buffer: it is copied into the record's fixed buffer immediately.
func beginTrace[T string | []byte](t *traceStore, id T, endpoint string, start time.Time) *traceRec {
	tr := t.pool.Get().(*traceRec)
	if len(id) > traceIDMax {
		id = id[:traceIDMax]
	}
	tr.idLen = copy(tr.id[:], id)
	tr.endpoint = endpoint
	tr.query = ""
	tr.start = start
	tr.durNs = 0
	tr.status = 0
	tr.nspans = 0
	return tr
}

// push files a finished record; the displaced one recycles to the pool.
func (t *traceStore) push(tr *traceRec) {
	t.mu.Lock()
	old := t.ring[t.next]
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
	if old != nil {
		t.evicted.Add(1)
		t.pool.Put(old)
	}
}

func (t *traceStore) dropped() uint64 { return t.evicted.Load() }

// TraceSpanView is one span of a trace, as served by /debug/traces.
type TraceSpanView struct {
	Name       string `json:"name"`
	OffsetUs   int64  `json:"offset_us"`
	DurationUs int64  `json:"duration_us"`
}

// TraceView is one traced request, as served by /debug/traces.
type TraceView struct {
	ID         string          `json:"id"`
	Endpoint   string          `json:"endpoint"`
	Query      string          `json:"query,omitempty"`
	Start      time.Time       `json:"start"`
	DurationUs int64           `json:"duration_us"`
	Status     int             `json:"status"`
	Spans      []TraceSpanView `json:"spans"`
}

// snapshot copies up to limit records, newest first, optionally filtered
// by exact request id. Cold path: allocations here are fine.
func (t *traceStore) snapshot(filterID string, limit int) []TraceView {
	t.mu.Lock()
	defer t.mu.Unlock()
	if limit <= 0 || limit > t.n {
		limit = t.n
	}
	out := make([]TraceView, 0, limit)
	for i := 1; i <= t.n && len(out) < limit; i++ {
		tr := t.ring[(t.next-i+len(t.ring))%len(t.ring)]
		if tr == nil {
			break
		}
		id := string(tr.id[:tr.idLen])
		if filterID != "" && id != filterID {
			continue
		}
		v := TraceView{
			ID:         id,
			Endpoint:   tr.endpoint,
			Query:      tr.query,
			Start:      tr.start,
			DurationUs: tr.durNs / 1e3,
			Status:     tr.status,
			Spans:      make([]TraceSpanView, tr.nspans),
		}
		for j := 0; j < tr.nspans; j++ {
			v.Spans[j] = TraceSpanView{
				Name:       tr.spans[j].name,
				OffsetUs:   tr.spans[j].offNs / 1e3,
				DurationUs: tr.spans[j].durNs / 1e3,
			}
		}
		out = append(out, v)
	}
	return out
}

// traceCtxKey carries the active trace through the mux handler chain.
type traceCtxKey struct{}

func traceFrom(ctx context.Context) *traceRec {
	tr, _ := ctx.Value(traceCtxKey{}).(*traceRec)
	return tr
}

// tracedCtx carries a request's trace (nil when untraced) on the fast loop,
// which keeps one per connection: the context costs no allocation.
type tracedCtx struct {
	context.Context
	tr *traceRec
}

func (c *tracedCtx) Value(key any) any {
	if key == (traceCtxKey{}) {
		return c.tr
	}
	return c.Context.Value(key)
}

// RequestID returns the X-Request-Id of the traced request ctx belongs to,
// truncated like its trace record; nil when the request is untraced.
func RequestID(ctx context.Context) []byte {
	if tr := traceFrom(ctx); tr != nil {
		return tr.id[:tr.idLen]
	}
	return nil
}

// handleDebugTraces serves the ring: ?id= filters by request id, ?n=
// bounds the result (default all buffered, newest first).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) error {
	q := query{raw: []byte(r.URL.RawQuery), scratch: new([]byte)}
	n, err := q.int("n", 0)
	if err != nil {
		return err
	}
	return writeJSON(w, map[string]any{
		"traces":  s.traces.snapshot(string(q.get("id")), int(n)),
		"dropped": s.traces.dropped(),
	})
}
