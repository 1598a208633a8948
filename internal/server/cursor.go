package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"
)

// Cursor-session errors, mapped to HTTP statuses by the handlers.
var (
	// ErrNoCursor: unknown or expired cursor id.
	ErrNoCursor = errors.New("server: unknown or expired cursor")
	// ErrCursorBusy: a second consumer tried to read a cursor mid-call.
	ErrCursorBusy = errors.New("server: cursor is in use by another request")
)

// cursor is one stateful enumeration session drawing rows of type R: the
// daemon's dictionary tuples, or the router's rendered strings (there the
// position counter or shuffle state lives at the router and each draw
// scatter-gathers across the shards). Cursors are single-consumer (the
// library contract for iterators and Permutation): instead of queueing a
// second reader behind the first, Next fails fast with ErrCursorBusy so a
// misbehaving client cannot pin a server goroutine.
//
// A cursor captures the entry it was started on: a registry rebuild does not
// disturb it — it keeps draining the snapshot it began with, which is the
// only coherent reading of "enumerate without repetitions" across a swap.
type cursor[R any] struct {
	id      string
	query   string // owning query: a cursor is only valid under its own path
	nextN   func(ctx context.Context, n int64) ([]R, error)
	busy    sync.Mutex
	expires time.Time // guarded by store.mu
}

// cursorStore owns the live cursors and their TTL accounting. Expiry is
// enforced both lazily (Get rejects an expired cursor) and by a janitor
// goroutine that frees abandoned sessions' memory.
type cursorStore[R any] struct {
	mu   sync.Mutex
	m    map[string]*cursor[R]
	ttl  time.Duration
	stop chan struct{}
	wg   sync.WaitGroup
}

func newCursorStore[R any](ttl time.Duration, sweep time.Duration) *cursorStore[R] {
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	if sweep <= 0 {
		sweep = ttl / 4
		if sweep < time.Second {
			sweep = time.Second
		}
	}
	s := &cursorStore[R]{m: make(map[string]*cursor[R]), ttl: ttl, stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(sweep)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				s.evict(now)
			}
		}
	}()
	return s
}

// Start registers a new session owned by the named query and returns its
// id.
func (s *cursorStore[R]) Start(query string, nextN func(context.Context, int64) ([]R, error)) string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	id := hex.EncodeToString(b[:])
	c := &cursor[R]{id: id, query: query, nextN: nextN}
	s.mu.Lock()
	c.expires = time.Now().Add(s.ttl)
	s.m[id] = c
	s.mu.Unlock()
	return id
}

// Next draws up to n answers from the cursor, refreshing its TTL. The
// cursor must belong to query (a cursor id presented under another query's
// path is treated as unknown). ctx is the requesting client's context; how
// the draw honors it is the order's business (enum-order draws abort
// between chunks without advancing, random-order draws are atomic), but in
// every case a cancelled draw leaves the cursor alive — like any probe
// error — so a later request can keep draining without losing answers.
// done reports that the enumeration is exhausted (the session is then
// removed); a probe error leaves the cursor alive so the client can retry.
//
// The TTL is refreshed twice: once when the draw is admitted and again
// when it completes. The second refresh is the one that matters for slow
// draws — a draw that itself outlives the TTL must not leave the cursor
// already expired (or evicted mid-draw) the moment it returns.
func (s *cursorStore[R]) Next(ctx context.Context, id, query string, n int64) (ts []R, done bool, err error) {
	now := time.Now()
	s.mu.Lock()
	c, ok := s.m[id]
	if !ok || c.query != query || now.After(c.expires) {
		s.mu.Unlock()
		return nil, false, ErrNoCursor
	}
	c.expires = now.Add(s.ttl) // refresh while the consumer is active
	s.mu.Unlock()

	if !c.busy.TryLock() {
		return nil, false, ErrCursorBusy
	}
	defer c.busy.Unlock()
	// Refresh on completion, before releasing busy. The existence check
	// matters: the exhausted path below removes the session, and a revived
	// map entry would leak.
	defer func() {
		s.mu.Lock()
		if _, ok := s.m[id]; ok {
			c.expires = time.Now().Add(s.ttl)
		}
		s.mu.Unlock()
	}()
	ts, err = c.nextN(ctx, n)
	if err != nil {
		return nil, false, err
	}
	if int64(len(ts)) < n {
		s.mu.Lock()
		delete(s.m, id)
		s.mu.Unlock()
		return ts, true, nil
	}
	return ts, false, nil
}

// Close drops a session explicitly (DELETE /enum). Like Next, it only acts
// on cursors owned by query.
func (s *cursorStore[R]) Close(id, query string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.m[id]
	if !ok || c.query != query {
		return false
	}
	delete(s.m, id)
	return true
}

// Len reports the number of live sessions.
func (s *cursorStore[R]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func (s *cursorStore[R]) evict(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, c := range s.m {
		if !now.After(c.expires) {
			continue
		}
		// Never evict a cursor mid-draw: a draw consumes answers (a
		// random-order permutation's positions are gone once drawn), so
		// deleting the session under the consumer would silently lose them.
		// TryLock is non-blocking, so holding store.mu here cannot deadlock
		// against Next (which never takes busy while holding store.mu). A
		// busy cursor is skipped; its completion refresh re-arms the TTL.
		if !c.busy.TryLock() {
			continue
		}
		delete(s.m, id)
		c.busy.Unlock()
	}
}

// Shutdown stops the janitor.
func (s *cursorStore[R]) Shutdown() {
	close(s.stop)
	s.wg.Wait()
}
