package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Socket windows are closed loop: each of C persistent connections sends
// its next request when the previous reply has arrived — renumd's callers
// are programs that ask for the next sample or page after the previous one.
// (A sleep-paced open loop on a small sandbox measures its own timer; see
// README.md, finding (a).)

const (
	warmup   = time.Second // before a measured window, or a fifth of a window shorter than 5 s
	nSlices  = 5
	checkGap = 64 // every 64th reply of a connection goes to the oracle
)

// clientCount is C = min(nproc, 4).
func clientCount() int { return min(runtime.NumCPU(), 4) }

// rec is one completed request.
type rec struct {
	end  int64 // completion, ns since the measured window opened (< 0: warm-up)
	lat  int64 // ns
	rows int32
	kind kind
	ok   bool // 2xx
}

// ack is an update the daemon acknowledged.
type ack struct {
	op    string
	cells []string
}

// conn is one closed-loop client.
type conn struct {
	c      client
	gen    *generator
	chk    checker
	req    request
	wire   []byte
	cursor []byte
	recs   []rec
	acks   []ack
}

// window is one measured run against one address.
type window struct {
	addr   string
	t      *traffic
	conns  []*conn
	length time.Duration
	midway func()            // runs once at the window's midpoint, on its own goroutine
	tamper func(body []byte) // test hook: corrupts a reply before it is checked
	tracer *tracer

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string
}

func (w *window) fail(format string, args ...any) {
	w.failed.Add(1)
	w.errMu.Lock()
	if len(w.errs) < 5 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
	w.errMu.Unlock()
}

var cursorDoneMark = []byte(`"done":true`)

func cursorDone(body []byte) bool { return bytes.Contains(body, cursorDoneMark) }

// countRows counts the rows of an {"answers":[[...],...]} body.
func countRows(body []byte) int64 {
	var reply answersReply
	if json.Unmarshal(body, &reply) != nil {
		return 0
	}
	return int64(len(reply.Answers))
}

// startCursor opens a seeded random-order cursor for the connection.
func (cn *conn) startCursor(addr string) error {
	seed := cn.gen.rng.Int63()
	cursor, err := openCursor(socketExchanger(&cn.c, addr), seed)
	if err != nil {
		return err
	}
	cn.cursor = append(cn.cursor[:0], cursor...)
	cn.gen.cursorFresh, cn.gen.cursorSeed = true, seed
	return nil
}

// run drives the window: the warm-up, then length of measurement.
func (w *window) run() error {
	for _, cn := range w.conns {
		if err := cn.c.dial(w.addr); err != nil {
			return err
		}
		defer cn.c.close()
		if w.t.has(kEnumNext) {
			if err := cn.startCursor(w.addr); err != nil {
				return err
			}
		}
	}
	open := time.Now().Add(min(warmup, w.length/5))
	deadline := open.Add(w.length)
	var wg sync.WaitGroup
	fatal := make(chan error, len(w.conns))
	for _, cn := range w.conns {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			if err := w.drive(cn, open, deadline); err != nil {
				fatal <- err
			}
		}(cn)
	}
	if w.midway != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(open.Add(w.length / 2)))
			w.midway()
		}()
	}
	wg.Wait()
	close(fatal)
	return <-fatal
}

// drive is one connection's closed loop. Transport errors end the run: a
// broken connection would otherwise turn into a quiet drop in load.
func (w *window) drive(cn *conn, open, deadline time.Time) error {
	for n := int64(1); ; n++ {
		if err := cn.gen.next(&cn.req); err != nil {
			return err
		}
		r := &cn.req
		cn.wire = r.appendHTTP(cn.wire[:0], cn.cursor)
		start := time.Now()
		if !start.Before(deadline) {
			return nil
		}
		status, err := cn.c.roundTrip(cn.wire)
		end := time.Now()
		measured := end.After(open)
		if measured {
			w.attempted.Add(1)
		}
		if err != nil {
			w.fail("%s: %v", r.kind, err)
			return fmt.Errorf("bench: connection to %s broke on %s: %w", w.addr, r.kind, err)
		}
		body := cn.c.body
		ok := status >= 200 && status < 300
		if !ok && measured {
			w.fail("%s: status %d: %s", r.kind, status, clip(body))
		}
		if w.tracer != nil {
			w.tracer.span("client."+r.kind.String(), "", start, end, uint64(cn.gen.id)<<32|uint64(n))
		}
		cn.recs = append(cn.recs, rec{
			end: int64(end.Sub(open)), lat: int64(end.Sub(start)),
			rows: int32(r.rows(w.t.count, body)), kind: r.kind, ok: ok,
		})
		if ok && r.kind == kUpdate {
			cn.acks = append(cn.acks, ack{op: r.op, cells: r.cells})
		}
		if n%checkGap == 0 || r.first {
			if w.tamper != nil {
				w.tamper(body)
			}
			w.attempted.Add(1)
			if err := cn.chk.check(r, status, body); err != nil {
				w.fail("oracle: %v", err)
			}
		}
		if r.kind == kEnumNext && (!ok || cursorDone(body)) {
			// Off the clock, like any client that reopens a finished cursor.
			if err := cn.startCursor(w.addr); err != nil {
				return err
			}
		}
	}
}

// classify selects which records a latency figure is computed over.
type classify func(rec) bool

func allKinds(rec) bool      { return true }
func readsOnly(r rec) bool   { return r.kind.isRead() }
func updatesOnly(r rec) bool { return r.kind == kUpdate }

// sliceStats cuts the measured window into nSlices equal slices and
// reports, for each, throughput and latency quantiles; every end-to-end
// figure is the median of the slice values.
type sliceStats struct {
	reqPerS, answersPerS value
	p50, p99             value // over records accepted by the filter
}

func (w *window) stats(filter classify) sliceStats {
	width := float64(w.length) / nSlices
	lats := make([][]float64, nSlices)
	var reqs, rows [nSlices]float64
	var total, kept int64
	for _, cn := range w.conns {
		for _, r := range cn.recs {
			if r.end < 0 || r.end >= int64(w.length) {
				continue
			}
			s := int(float64(r.end) / width)
			if s >= nSlices {
				s = nSlices - 1
			}
			if r.ok {
				reqs[s]++
				rows[s] += float64(r.rows)
				total++
			}
			if r.ok && filter(r) {
				lats[s] = append(lats[s], float64(r.lat)/1e3)
				kept++
			}
		}
	}
	perS := func(counts [nSlices]float64) []float64 {
		out := make([]float64, nSlices)
		for i, c := range counts {
			out[i] = c / (width / 1e9)
		}
		return out
	}
	var p50s, p99s []float64
	for _, l := range lats {
		if len(l) == 0 {
			continue
		}
		sort.Float64s(l)
		p50s = append(p50s, quantile(l, 0.50))
		p99s = append(p99s, quantile(l, 0.99))
	}
	return sliceStats{
		reqPerS:     medianOf(perS(reqs), total),
		answersPerS: medianOf(perS(rows), total),
		p50:         medianOf(p50s, kept),
		p99:         medianOf(p99s, kept),
	}
}
