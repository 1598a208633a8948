package renum

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/synth"
)

// BenchmarkShardRouting prices the in-process sharding layer: the same star
// instance behind an unsharded index and behind WithShards(4), probed with
// identical position streams. The delta is the cost of the prefix-sum route
// (O(log K) fenwick descent) per probe; AccessInto must stay allocation-free
// through the sharded path — TestShardedEquivalence pins K=4 at 0
// allocations.
func BenchmarkShardRouting(b *testing.B) {
	db, q, err := synth.Star(synth.Config{
		Relations: 3, TuplesPerRelation: 20_000, KeyDomain: 4_000, SkewS: 1.1, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	ref, err := Open(db, q)
	if err != nil {
		b.Fatal(err)
	}
	sh, err := Open(db, q, WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	n := ref.Count()
	if n == 0 || sh.Count() != n {
		b.Fatalf("bad fixture: counts %d vs %d", ref.Count(), sh.Count())
	}
	const batch = 1024
	rng := rand.New(rand.NewSource(13))
	js := make([]int64, batch)
	for i := range js {
		js[i] = rng.Int63n(n)
	}

	for _, arm := range []struct {
		name string
		h    *Handle
	}{{"Unsharded", ref}, {"K=4", sh}} {
		b.Run("AccessInto/"+arm.name, func(b *testing.B) {
			buf := make(Tuple, len(arm.h.Head()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := arm.h.AccessInto(js[i%batch], buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("AccessBatch%d/%s", batch, arm.name), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arm.h.AccessBatch(js); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
