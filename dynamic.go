package renum

import (
	"context"
	"math/rand"

	"repro/internal/dynaccess"
)

// Errors of the dynamic index.
var (
	// ErrNotFull: the dynamic index requires a projection-free CQ.
	ErrNotFull = dynaccess.ErrNotFull
)

// daBackend serves a WithDynamic handle (library extension in the direction
// of "answering queries under updates", the paper's citation [6]): for
// *full* free-connex CQs the index maintains count, random access, inverted
// access and uniform sampling under tuple insertions and deletions on the
// base relations. Access costs O(log n) per join-tree node (Fenwick prefix
// search); an update costs O(a log n) where a is the number of ancestor
// tuples whose weights change — small on hierarchical data, linear in
// adversarial cases (unavoidable in general, by the known update-time lower
// bounds).
//
// The index is safe for concurrent use — reads run under a shared lock and
// interleave freely, Insert and Delete take the exclusive lock — and it
// brings Updater, UpdateValidator, Inverter, Container and the probes by
// promotion. There is no stable order (positions shift under updates); a
// batch or a sample takes the shared lock once, so it is answered from one
// state of the index.
type daBackend struct {
	*dynaccess.Index
}

func (daBackend) kind() Kind { return KindDynamic }

func (b daBackend) accessBatchContext(ctx context.Context, js []int64, _ int) ([]Tuple, error) {
	return b.AccessBatch(orBackground(ctx), js)
}

// SampleN returns k independent uniform samples (with replacement — the
// dynamic index has no cheap distinct-sampling primitive) drawn against one
// consistent snapshot: no update interleaves inside the batch. It has the
// Sampler's error shape: a negative k is ErrOutOfBounds, and an empty index
// yields an empty sample with a nil error.
func (b daBackend) SampleN(k int64, rng *rand.Rand) ([]Tuple, error) {
	if k < 0 {
		return nil, ErrOutOfBounds
	}
	return b.Index.SampleN(k, rng), nil
}

// compactAside rebuilds the dynamic index from its base contents — the
// registry compactor's seam for folding the WAL into a fresh generation.
// The copy is assembled under the source's shared read lock only, so probes
// continue while it builds, and it enumerates byte-identically to the source
// (tombstone positions are preserved, so even future re-inserts revive in
// the same places).
func (b daBackend) compactAside() (backend, error) {
	idx, err := b.Rebuild()
	if err != nil {
		return nil, err
	}
	return daBackend{idx}, nil
}
