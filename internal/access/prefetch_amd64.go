//go:build amd64

package access

import "unsafe"

// prefetcht0 issues a PREFETCHT0 for the cache line holding p: a hint to
// pull the line into all cache levels without stalling. Probes use it to
// overlap cache misses that the descent would otherwise take one after the
// other. Implemented in prefetch_amd64.s; the call is not inlined, so
// callers skip it where the line is likely in cache already.
//
//go:noescape
func prefetcht0(p unsafe.Pointer)
