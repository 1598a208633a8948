package mcucq

import (
	"math/rand"
	"testing"

	"repro/internal/tpch"
	"repro/internal/tpchq"
)

// BenchmarkAblationLargest is Ablation 4: the fenced Compute-k against the
// appendix's Largest formulation (countUpToViaLargest), on the first level of
// QS7 ∪ QC7 at TPC-H SF 0.01. "DirectRank" is countUpTo — at TPC-H's stride 1
// a fence search and no probe — and "ViaLargest" the paper's probe-driven
// binary search plus its extra inverted access, so the gap is what the
// fences save. One op = one Compute-k: every intersection set of the level
// counted at one random j < |A|.
func BenchmarkAblationLargest(b *testing.B) {
	db, err := tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := tpchq.PrepareDerived(db); err != nil {
		b.Fatal(err)
	}
	m, err := New(db, tpchq.UnionQ7(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	lv := &m.levels[0]
	for _, arm := range []struct {
		name  string
		count func(t *interSet, j int64) int64
	}{{"DirectRank", (*interSet).countUpTo}, {"ViaLargest", countUpToViaLargest}} {
		b.Run(arm.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			var sink int64
			for i := 0; i < b.N; i++ {
				j := rng.Int63n(lv.nA)
				for ti := range lv.ts {
					sink += lv.ts[ti].sign * arm.count(&lv.ts[ti], j)
				}
			}
			if sink < 0 {
				b.Fatal("Compute-k went negative")
			}
		})
	}
}
