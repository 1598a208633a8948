package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"repro"
)

// traffic is a workload's request mix over one served query.
type traffic struct {
	mix       []mixEntry
	count     int64 // positions are uniform over [0, count)
	batch     int   // positions per /batch
	pageLimit int64
	sampleK   int64
	enumN     int64
	keys      int // update: size of the join-key domain
}

type mixEntry struct {
	kind  kind
	share int // percent
}

func (t *traffic) has(k kind) bool {
	for _, m := range t.mix {
		if m.kind == k {
			return true
		}
	}
	return false
}

// generator draws one connection's requests from the mix. All randomness
// comes from its seeded rng, so a seed fixes the whole request sequence.
type generator struct {
	t   *traffic
	rng *rand.Rand
	id  int
	js  []int64

	// contains: answers are rendered by the in-process handle.
	h    *renum.Handle
	dict *renum.Dict
	row  renum.Tuple

	// update: this connection's insert sequence. live holds the tuples
	// inserted and not yet deleted, oldest first.
	updates  int
	live     [][]string
	inserted *sync.Map // shared with the dynamic oracle

	// enum_next: set by the connection when it (re)starts its cursor.
	cursorFresh bool
	cursorSeed  int64
}

func newGenerator(t *traffic, seed int64, id int, db *renum.Database, h *renum.Handle, inserted *sync.Map) *generator {
	return &generator{
		t: t, rng: rand.New(rand.NewSource(seed + int64(id)*1_000_003)), id: id,
		js: make([]int64, t.batch),
		h:  h, dict: db.Dict(), row: make(renum.Tuple, len(h.Head())),
		inserted: inserted,
	}
}

func (g *generator) pick() kind {
	x := g.rng.Intn(100)
	for _, m := range g.t.mix {
		if x < m.share {
			return m.kind
		}
		x -= m.share
	}
	return g.t.mix[len(g.t.mix)-1].kind
}

// next fills r with the connection's next request.
func (g *generator) next(r *request) error {
	*r = request{kind: g.pick()}
	switch r.kind {
	case kAccess:
		r.j = g.rng.Int63n(g.t.count)
	case kBatch, kBatchWire:
		for i := range g.js {
			g.js[i] = g.rng.Int63n(g.t.count)
		}
		r.js = g.js
	case kPage:
		r.j, r.n = g.rng.Int63n(g.t.count), g.t.pageLimit
	case kSample:
		r.j, r.n = g.rng.Int63(), g.t.sampleK
	case kEnumNext:
		r.n, r.first, r.seed = g.t.enumN, g.cursorFresh, g.cursorSeed
		g.cursorFresh = false
	case kContains:
		if err := g.h.AccessInto(g.rng.Int63n(g.t.count), g.row); err != nil {
			return err
		}
		r.cells = make([]string, len(g.row))
		for i, v := range g.row {
			r.cells[i] = g.dict.String(v)
		}
	case kUpdate:
		g.nextUpdate(r)
	}
	return nil
}

// nextUpdate alternates fresh inserts with deletes of the tuple inserted two
// steps earlier, so the relation's size stays level: at most three of a
// connection's inserts are live at any time.
func (g *generator) nextUpdate(r *request) {
	if g.updates%2 == 1 && len(g.live) >= 2 {
		r.op, r.rel, r.cells = "delete", "r", g.live[0]
		g.live = g.live[1:]
	} else {
		a := fmt.Sprintf("u%d_%d", g.id, g.updates)
		b := strconv.Itoa(g.rng.Intn(g.t.keys))
		r.op, r.rel, r.cells = "insert", "r", []string{a, b}
		g.live = append(g.live, r.cells)
		g.inserted.Store(a, b)
	}
	g.updates++
}

// rows is how many answers a successful reply to r carries.
func (r *request) rows(count int64, body []byte) int64 {
	switch r.kind {
	case kAccess:
		return 1
	case kBatch, kBatchWire:
		return int64(len(r.js))
	case kPage:
		return pageLen(count, r.j, r.n)
	case kSample:
		return r.n
	case kEnumNext:
		if cursorDone(body) {
			return countRows(body)
		}
		return r.n
	}
	return 0
}
