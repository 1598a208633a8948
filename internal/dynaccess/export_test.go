package dynaccess

import "repro/internal/relation"

// AccessIntoUnlocked is AccessInto without the read lock, for measuring
// what the lock costs a probe (BenchmarkProbeBesideWriter). Only for an
// index nothing writes to.
func (idx *Index) AccessIntoUnlocked(j int64, answer relation.Tuple) {
	idx.subtreeAccess(idx.root, 0, j, answer)
}
