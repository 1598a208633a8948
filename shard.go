package renum

import (
	"context"
	"fmt"
	"sync"
)

// SliceView returns a handle serving the i-th of k contiguous position
// windows of h's enumeration order as local positions 0..Count()-1. It is
// the one way a shard is cut, whatever built h — Open over base relations
// or a snapshot restore, where the mmap-backed index only faults the pages
// the window touches. The window boundaries are floor(i·N/k): the k
// slices partition h exactly, so concatenating them in slice order
// reproduces h byte-for-byte. Requires CapEnumerate (a stable order is
// what makes a position window meaningful).
func SliceView(h *Handle, i, k int) (*Handle, error) {
	if h == nil {
		return nil, fmt.Errorf("renum: SliceView: nil handle")
	}
	if k < 1 || i < 0 || i >= k {
		return nil, fmt.Errorf("renum: SliceView: slice %d/%d out of range", i, k)
	}
	if !h.Has(CapEnumerate) {
		return nil, fmt.Errorf("renum: SliceView requires a stable enumeration order: %w (kind %s)", ErrUnsupported, h.Kind())
	}
	n := h.Count()
	lo, hi := int64(i)*n/int64(k), int64(i+1)*n/int64(k)
	sb := sliceBackend{of: h.b, lo: lo, n: hi - lo, idx: i, k: k}
	if _, ok := h.b.(Inverter); ok {
		return &Handle{b: sliceInvBackend{sb}, workers: h.workers}, nil
	}
	return &Handle{b: sb, workers: h.workers}, nil
}

// sliceBackend is a contiguous position window over another backend.
type sliceBackend struct {
	of     backend
	lo, n  int64
	idx, k int
}

func (b sliceBackend) kind() Kind { return b.of.kind() }

func (b sliceBackend) Count() int64   { return b.n }
func (b sliceBackend) Head() []string { return b.of.Head() }

func (b sliceBackend) AccessInto(j int64, buf Tuple) error {
	if j < 0 || j >= b.n {
		return ErrOutOfBounds
	}
	return b.of.AccessInto(b.lo+j, buf)
}

func (b sliceBackend) accessBatchContext(ctx context.Context, js []int64, workers int) ([]Tuple, error) {
	shifted, err := b.shift(make([]int64, 0, len(js)), js)
	if err != nil {
		return nil, err
	}
	return b.of.accessBatchContext(ctx, shifted, workers)
}

// shiftBufs recycles the shifted positions of accessBatchInto, so a window
// fills caller-owned rows without allocating, as the backend it wraps does:
// a shard daemon's fast loop answers every /batch and /page through it.
var shiftBufs = sync.Pool{New: func() any { return new([]int64) }}

func (b sliceBackend) accessBatchInto(js []int64, rows []Tuple) error {
	buf := shiftBufs.Get().(*[]int64)
	defer shiftBufs.Put(buf)
	shifted, err := b.shift((*buf)[:0], js)
	if err != nil {
		return err
	}
	*buf = shifted
	return accessBatchInto(b.of, shifted, rows)
}

// shift appends the wrapped backend's positions for the window positions js
// to dst, or fails with ErrOutOfBounds when one lies outside the window.
func (b sliceBackend) shift(dst, js []int64) ([]int64, error) {
	for _, j := range js {
		if j < 0 || j >= b.n {
			return nil, ErrOutOfBounds
		}
		dst = append(dst, b.lo+j)
	}
	return dst, nil
}

// explain always has the window to report, with the wrapped backend's plan
// after it when there is one.
func (b sliceBackend) explain() (string, bool) {
	inner, _ := explain(b.of)
	return fmt.Sprintf("slice %d/%d: positions [%d, %d) of the global order\n", b.idx, b.k, b.lo, b.lo+b.n) + inner, true
}

// sliceInvBackend adds inverted access and membership when the wrapped
// backend can invert: a hit outside the window is not an answer of the
// slice. (Contains needs the inverse too — a bare Container could confirm
// membership in the whole answer set, not in this window.)
type sliceInvBackend struct {
	sliceBackend
}

func (b sliceInvBackend) InvertedAccess(t Tuple) (int64, bool) {
	g, ok := b.of.(Inverter).InvertedAccess(t)
	if !ok || g < b.lo || g >= b.lo+b.n {
		return 0, false
	}
	return g - b.lo, true
}

func (b sliceInvBackend) Contains(t Tuple) bool {
	_, ok := b.InvertedAccess(t)
	return ok
}
