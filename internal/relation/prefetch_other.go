//go:build !amd64

package relation

import "unsafe"

// Prefetch is a no-op on architectures without an explicit prefetch helper;
// the pass structure of its callers still overlaps misses through the early
// loads themselves.
func Prefetch(p unsafe.Pointer) { _ = p }
