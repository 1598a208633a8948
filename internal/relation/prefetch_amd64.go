//go:build amd64

package relation

import "unsafe"

// Prefetch issues a PREFETCHT0 for the cache line holding p: a hint to pull
// the line into all cache levels without stalling. Code that reads many
// far-apart lines in a row uses it to overlap cache misses it would
// otherwise take one after the other: the index probes (internal/access)
// prefetch the line each descent reads next, and the server's encoders
// prefetch the first byte of every string in a block of answer cells before
// rendering any of them. Implemented in prefetch_amd64.s; the call is not
// inlined, so callers skip it where the line is likely in cache already.
//
//go:noescape
func Prefetch(p unsafe.Pointer)
