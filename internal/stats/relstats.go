package stats

import "repro/internal/relation"

// Stats summarizes one relation for the cost-based join-tree planner: the
// tuple count plus per-column distinct counts (relation.DistinctCount: one
// value set per column, no per-tuple group IDs). Collection is
// O(columns · n); the planner collects each base relation at most once per
// planning call.
type Stats struct {
	// Name is the relation's name (diagnostic only).
	Name string
	// Tuples is the relation's cardinality.
	Tuples int64
	// Distinct[i] is the number of distinct values in column i.
	Distinct []int64
}

// CollectRelation computes planner statistics for r.
func CollectRelation(r *relation.Relation) *Stats {
	s := &Stats{
		Name:     r.Name(),
		Tuples:   int64(r.Len()),
		Distinct: make([]int64, r.Arity()),
	}
	for i := range s.Distinct {
		s.Distinct[i] = int64(r.DistinctCount(i))
	}
	return s
}

// DistinctAt estimates the number of distinct combinations over the given
// column positions: the product of per-column distinct counts, capped by the
// tuple count (the true joint count can never exceed either bound). An empty
// position set has exactly one combination.
func (s *Stats) DistinctAt(positions []int) int64 {
	if len(positions) == 0 {
		return 1
	}
	est := int64(1)
	for _, p := range positions {
		d := s.Distinct[p]
		if d < 1 {
			d = 1
		}
		// Saturate instead of overflowing: beyond Tuples the cap wins anyway.
		if est > s.Tuples/d+1 {
			est = s.Tuples
			break
		}
		est *= d
	}
	if est > s.Tuples {
		est = s.Tuples
	}
	if est < 1 && s.Tuples > 0 {
		est = 1
	}
	return est
}
