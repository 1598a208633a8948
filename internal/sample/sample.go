// Package sample packages the baseline of Section 6: the uniform
// with-replacement samplers of Zhao et al. (SIGMOD 2018), naively turned into
// enumerators-without-repetition by rejecting previously seen answers — the
// comparison point for REnum(CQ) in Figures 1–3 and 6–8.
//
// The four initializations (see internal/access/samplers.go for the exact
// sampling schemes and their uniformity proofs):
//
//	EW — exact weights, never rejects a trial;
//	EO — Olken-style rejection at the root of the join tree;
//	OE — wander-join walk with end rejection;
//	RS — fully naive independent tuple picks.
package sample

import (
	"fmt"
	"math/rand"

	"repro/internal/access"
	"repro/internal/relation"
)

// Method selects a sampler initialization.
type Method int

const (
	EW Method = iota
	EO
	OE
	RS
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case EW:
		return "EW"
	case EO:
		return "EO"
	case OE:
		return "OE"
	case RS:
		return "RS"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists all baseline methods.
var Methods = []Method{EW, EO, OE, RS}

// Sampler draws uniform answers with replacement from a prepared index and
// enumerates distinct answers by duplicate elimination.
type Sampler struct {
	idx    *access.Index
	method Method
	rng    *rand.Rand
	bounds *access.Bounds // EO and OE only

	seen map[string]bool

	// Trials counts sampling trials (including rejections and duplicates).
	Trials int64
	// Duplicates counts draws discarded because the answer was seen before.
	Duplicates int64
	// TrialRejections counts trials rejected by the sampler itself
	// (always 0 for EW).
	TrialRejections int64
	// MaxTrialsPerDraw bounds the number of trials a single Draw may burn
	// before giving up (0 = unlimited). Guards RS on large instances.
	MaxTrialsPerDraw int64
}

// New returns a Sampler over the prepared index. EO and OE derive their
// rejection bounds here, in one pass over the index.
func New(idx *access.Index, method Method, rng *rand.Rand) *Sampler {
	s := &Sampler{idx: idx, method: method, rng: rng, seen: make(map[string]bool)}
	if method == EO || method == OE {
		s.bounds = idx.BaselineBounds()
	}
	return s
}

// trial draws one with-replacement sample (possibly rejecting).
func (s *Sampler) trial() (relation.Tuple, bool) {
	switch s.method {
	case EW:
		return s.idx.SampleEW(s.rng)
	case EO:
		return s.idx.SampleEOTrial(s.rng, s.bounds)
	case OE:
		return s.idx.SampleOETrial(s.rng, s.bounds)
	case RS:
		return s.idx.SampleRSTrial(s.rng)
	default:
		return nil, false
	}
}

// Sample draws one uniform answer with replacement (retrying internal
// rejections). ok is false on an empty answer set or when MaxTrialsPerDraw is
// exhausted.
func (s *Sampler) Sample() (relation.Tuple, bool) {
	if s.idx.Count() == 0 {
		return nil, false
	}
	for n := int64(0); s.MaxTrialsPerDraw == 0 || n < s.MaxTrialsPerDraw; n++ {
		s.Trials++
		t, ok := s.trial()
		if ok {
			return t, true
		}
		s.TrialRejections++
	}
	return nil, false
}

// Next returns the next previously-unseen answer, emulating an enumeration
// without repetitions by rejecting duplicates (the paper's transformation of
// the Zhao et al. sampler). ok is false when all answers have been emitted or
// the trial budget is exhausted.
func (s *Sampler) Next() (relation.Tuple, bool) {
	if int64(len(s.seen)) >= s.idx.Count() {
		return nil, false
	}
	for {
		t, ok := s.Sample()
		if !ok {
			return nil, false
		}
		k := t.Key()
		if s.seen[k] {
			s.Duplicates++
			continue
		}
		s.seen[k] = true
		return t, true
	}
}

// Emitted returns how many distinct answers have been produced so far.
func (s *Sampler) Emitted() int64 { return int64(len(s.seen)) }
