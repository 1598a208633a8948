// Package parallel provides the small concurrency toolkit used by the
// preprocessing and serving layers: a bounded task group with errgroup-style
// first-error cancellation, and index-space fan-out helpers.
//
// The package deliberately has no dependency on the rest of the module (it
// sits below internal/access) and no external dependencies: the container
// environment is stdlib-only, so the errgroup shape is reimplemented here.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the default worker count for CPU-bound fan-out:
// GOMAXPROCS, which tracks both the machine size and any explicit cap the
// embedding process set.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// group runs tasks on at most a fixed number of goroutines and records the
// first error. After a task fails, Go becomes a no-op for tasks not yet
// started (cancellation), while already-running tasks finish normally — the
// same contract as golang.org/x/sync/errgroup with a context. A group must
// not be reused after Wait.
type group struct {
	wg       sync.WaitGroup
	sem      chan struct{}
	errOnce  sync.Once
	err      error
	canceled atomic.Bool
}

// newGroup returns a group running at most limit tasks concurrently
// (limit <= 0 means Workers()).
func newGroup(limit int) *group {
	if limit <= 0 {
		limit = Workers()
	}
	return &group{sem: make(chan struct{}, limit)}
}

// Go schedules fn. If the group is already canceled by a previous failure,
// fn is dropped. A panic inside fn is captured as an error rather than
// crashing the process, so a failed build surfaces as a build error.
func (g *group) Go(fn func() error) {
	if g.canceled.Load() {
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.sem <- struct{}{}
		defer func() { <-g.sem }()
		if g.canceled.Load() {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				g.fail(fmt.Errorf("parallel: task panicked: %v", r))
			}
		}()
		if err := fn(); err != nil {
			g.fail(err)
		}
	}()
}

func (g *group) fail(err error) {
	g.errOnce.Do(func() {
		g.err = err
		g.canceled.Store(true)
	})
}

// Wait blocks until every scheduled task finished and returns the first
// error, if any.
func (g *group) Wait() error {
	g.wg.Wait()
	return g.err
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 means Workers()). Iterations are dealt out one index at a
// time, which balances uneven per-item cost; the first error cancels the
// remaining undealt indexes.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	g := newGroup(workers)
	for w := 0; w < workers; w++ {
		g.Go(func() error {
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || g.canceled.Load() {
					return nil
				}
				if err := fn(int(i)); err != nil {
					return err
				}
			}
		})
	}
	return g.Wait()
}

// ForEachChunk splits [0, n) into at most `workers` contiguous chunks and
// runs fn(lo, hi) for each on its own goroutine (workers <= 0 means
// Workers()). Use it when per-index work is tiny and uniform — batched
// random access, page assembly — so the per-task overhead is paid once per
// chunk, not once per index.
func ForEachChunk(n, workers int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		return fn(0, n)
	}
	g := newGroup(workers)
	size := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		g.Go(func() error { return fn(lo, hi) })
	}
	return g.Wait()
}

// ctxChunkSize bounds the chunk size of ForEachChunkCtx: a cancelled context
// is observed after at most this many indexes of remaining work per worker,
// whatever n is. 1024 keeps the per-chunk bookkeeping negligible next to the
// O(log n) cost of one probe while still bounding cancellation latency to
// microseconds-to-milliseconds of work.
const ctxChunkSize = 1024

// ForEachChunkCtx is ForEachChunk with cooperative cancellation: ctx is
// consulted between chunks, and the index space is split into bounded chunks
// (at most ctxChunkSize indexes each) rather than workers-many slabs, so a
// large n cannot postpone the cancellation check to the end of the call.
// When ctx is cancelled, workers stop dealing out new chunks and the first
// error returned is ctx.Err(); chunks already running finish normally, so fn
// never observes a torn chunk. A nil or never-cancellable ctx (no Done
// channel) takes the exact ForEachChunk fast path.
func ForEachChunkCtx(ctx context.Context, n, workers int, fn func(lo, hi int) error) error {
	if ctx == nil || ctx.Done() == nil {
		return ForEachChunk(n, workers, fn)
	}
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	size := (n + workers - 1) / workers
	if size > ctxChunkSize {
		size = ctxChunkSize
	}
	if workers == 1 {
		for lo := 0; lo < n; lo += size {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + size
			if hi > n {
				hi = n
			}
			if err := fn(lo, hi); err != nil {
				return err
			}
		}
		return nil
	}
	// Chunks are dealt out dynamically: each worker claims the next chunk
	// after re-checking the context, so cancellation stops the fleet within
	// one chunk per worker.
	var next atomic.Int64
	g := newGroup(workers)
	for w := 0; w < workers; w++ {
		g.Go(func() error {
			for {
				if err := ctx.Err(); err != nil {
					return err
				}
				lo := int(next.Add(int64(size))) - size
				if lo >= n || g.canceled.Load() {
					return nil
				}
				hi := lo + size
				if hi > n {
					hi = n
				}
				if err := fn(lo, hi); err != nil {
					return err
				}
			}
		})
	}
	return g.Wait()
}
