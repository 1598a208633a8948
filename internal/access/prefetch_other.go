//go:build !amd64

package access

import "unsafe"

// prefetcht0 is a no-op on architectures without an explicit prefetch
// helper; the pass structure of the probes still overlaps misses through
// the early loads themselves.
func prefetcht0(p unsafe.Pointer) { _ = p }
