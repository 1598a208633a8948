// Package unionenum implements Algorithm 5 of the paper: random-order
// enumeration of a union of sets S1 ∪ ... ∪ Sk, given per-set counting,
// uniform sampling, membership testing and deletion (Lemma 5.2). Applied to
// unions of free-connex CQs via the Lemma 5.3 sets, this is REnum(UCQ):
// linear preprocessing and expected logarithmic delay (Theorem 5.4).
//
// The sets are spoken to in positions, not tuples. For a CQ's answer set
// both membership and deletion begin with the same inverted access, so an
// iteration that tested an element against a set and then deleted it there
// by value inverted it twice, and deleting the sampled element inverted a
// tuple whose position the sampler had just drawn. Here Sample hands back
// the position with the element, Locate is the one inverted access per
// other set, and DeleteAt takes the position already in hand: an iteration
// over k sets costs one random access, exactly k − 1 inverted accesses and
// O(k) deletion-table operations, however many sets hold the element.
//
// # Concurrency contract
//
// NewFromUCQ prepares the disjunct indexes on a worker pool (they are
// independent); the resulting Enumerator is strictly single-consumer:
// every Next mutates the deletable sets and the rng, so a shared Enumerator
// must be driven by one goroutine (or externally serialized). Build one
// Enumerator per consumer — the underlying indexes cannot be shared across
// enumerators anyway, since enumeration consumes the sets.
package unionenum

import (
	"math/rand"
	"time"

	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
)

// Set is the abstract interface required by Algorithm 5. An element has a
// position in its set, fixed for the set's lifetime; all operations must run
// in (poly)logarithmic time for the delay guarantee to hold.
type Set interface {
	// Count returns the number of remaining elements.
	Count() int64
	// Arity returns the length of the set's elements; every set of one
	// union has the same.
	Arity() int
	// Sample writes a uniformly random remaining element into buf (of
	// length Arity) and returns its position, without removing it; ok is
	// false iff the set is empty.
	Sample(rng *rand.Rand, buf relation.Tuple) (pos int64, ok bool)
	// Locate returns the position of t iff t is a remaining element.
	Locate(t relation.Tuple) (pos int64, ok bool)
	// DeleteAt removes the element at pos, reporting whether it was
	// remaining.
	DeleteAt(pos int64) bool
}

// emitChunk is how many emitted tuples share one backing array.
const emitChunk = 64

// Enumerator emits the elements of the union exactly once each, in uniformly
// random order. Each emission costs an expected O(k) set operations, where k
// is the number of sets; the delay is also amortized O(k) operations because
// every element is rejected at most once (it is deleted from all non-owner
// sets the first time it is sampled).
type Enumerator struct {
	sets []Set
	rng  *rand.Rand

	// Emitted tuples are carved from slab, one array per emitChunk answers;
	// the consumer may keep them. A rejected iteration's slot is reused.
	arity int
	slab  []relation.Value

	// Instrument enables wall-clock accounting of time spent on rejected
	// iterations versus emitting iterations (Figure 5 of the paper).
	Instrument bool

	// Rejections counts rejected iterations so far.
	Rejections int64
	// RejectTime and AnswerTime accumulate iteration wall-clock time when
	// Instrument is set.
	RejectTime time.Duration
	AnswerTime time.Duration
}

// New builds an enumerator over the given sets. The sets are consumed:
// enumeration deletes their elements.
func New(sets []Set, rng *rand.Rand) *Enumerator {
	e := &Enumerator{sets: sets, rng: rng}
	if len(sets) > 0 {
		e.arity = sets[0].Arity()
	}
	return e
}

// NewFromUCQ prepares every disjunct of the UCQ (linear preprocessing per
// disjunct, disjuncts prepared concurrently on the default worker pool) and
// returns the Algorithm 5 enumerator over their answer sets.
func NewFromUCQ(db *relation.Database, u *query.UCQ, rng *rand.Rand, opts reduce.Options) (*Enumerator, error) {
	return NewFromUCQWorkers(db, u, rng, opts, 0)
}

// NewFromUCQWorkers is NewFromUCQ with the preparation fan-out capped at
// `workers` goroutines (0 means all cores; 1 prepares the disjuncts serially
// with serial index builds — the paper's single-threaded setup).
func NewFromUCQWorkers(db *relation.Database, u *query.UCQ, rng *rand.Rand, opts reduce.Options, workers int) (*Enumerator, error) {
	sets := make([]Set, len(u.Disjuncts))
	build := access.BuildOptions{Workers: workers}
	if err := parallel.ForEach(len(u.Disjuncts), workers, func(i int) error {
		c, err := cqenum.PrepareWithOptions(db, u.Disjuncts[i], opts, build)
		if err != nil {
			return err
		}
		sets[i] = c.NewDeletableSet()
		return nil
	}); err != nil {
		return nil, err
	}
	return New(sets, rng), nil
}

// Remaining returns the number of elements not yet emitted. Because an
// element may still be present in several sets, this is an upper bound that
// becomes exact as duplicates get deleted; Count()==0 is exact emptiness.
func (e *Enumerator) Remaining() int64 {
	var total int64
	for _, s := range e.sets {
		total += s.Count()
	}
	return total
}

// Next returns the next element of the random permutation of the union; ok
// is false once the union is exhausted.
func (e *Enumerator) Next() (relation.Tuple, bool) {
	for {
		var start time.Time
		if e.Instrument {
			start = time.Now()
		}

		// Line 1-2: weighted choice of a set by remaining cardinality.
		var total int64
		for _, s := range e.sets {
			total += s.Count()
		}
		if total == 0 {
			return nil, false
		}
		r := e.rng.Int63n(total)
		chosen := -1
		for i, s := range e.sets {
			c := s.Count()
			if r < c {
				chosen = i
				break
			}
			r -= c
		}

		// Line 3: uniform sample from the chosen set, into the next slot.
		if len(e.slab) < e.arity {
			e.slab = make([]relation.Value, emitChunk*e.arity)
		}
		element := relation.Tuple(e.slab[:e.arity:e.arity])
		pos, ok := e.sets[chosen].Sample(e.rng, element)
		if !ok {
			// Unreachable: chosen has positive count.
			continue
		}

		// Lines 4-7: the owner is the first set holding the element; every
		// other provider loses it, at the position it was located at — the
		// sampled set at the position it was sampled at.
		owner := chosen
		for i, s := range e.sets {
			if i == chosen {
				continue
			}
			if at, ok := s.Locate(element); ok {
				if i < owner {
					owner = i
				} else {
					s.DeleteAt(at)
				}
			}
		}
		e.sets[chosen].DeleteAt(pos)

		// Lines 8-9: emit only when the owner was the sampled set (which has
		// just given the element up for good); otherwise the owner keeps it
		// for a later draw and this iteration's slot is reused.
		if owner == chosen {
			e.slab = e.slab[e.arity:]
			if e.Instrument {
				e.AnswerTime += time.Since(start)
			}
			return element, true
		}
		e.Rejections++
		if e.Instrument {
			e.RejectTime += time.Since(start)
		}
	}
}
