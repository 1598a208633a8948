package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/synth"
)

// prepare builds the unsharded reference index and the database/query it
// came from.
func prepare(t *testing.T) (*relation.Database, *query.CQ, *cqenum.CQ) {
	t.Helper()
	db, q, err := synth.Star(synth.Config{Relations: 3, TuplesPerRelation: 80, KeyDomain: 20, SkewS: 1.2, Seed: 11})
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	ref, err := cqenum.Prepare(db, q, reduce.Options{})
	if err != nil {
		t.Fatalf("prepare reference: %v", err)
	}
	return db, q, ref
}

func tupleEq(a, b relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSetMatchesUnshardedOrder(t *testing.T) {
	db, q, ref := prepare(t)
	n := ref.Index.Count()
	if n == 0 {
		t.Fatal("reference instance has no answers; tighten the synth config")
	}
	for _, k := range []int{1, 2, 3, 7, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			set, err := Build(db, q, k, reduce.Options{}, access.BuildOptions{})
			if err != nil {
				t.Fatalf("Build K=%d: %v", k, err)
			}
			if got := set.Count(); got != n {
				t.Fatalf("Count = %d, want %d", got, n)
			}
			if set.NumShards() != k {
				t.Fatalf("NumShards = %d, want %d", set.NumShards(), k)
			}
			var sum int64
			for i := 0; i < k; i++ {
				sum += set.ShardCount(i)
			}
			if sum != n {
				t.Fatalf("shard counts sum to %d, want %d", sum, n)
			}
			buf := make(relation.Tuple, len(set.Head()))
			for j := int64(0); j < n; j++ {
				want, err := ref.Index.Access(j)
				if err != nil {
					t.Fatalf("reference Access(%d): %v", j, err)
				}
				got, err := set.Access(j)
				if err != nil {
					t.Fatalf("sharded Access(%d): %v", j, err)
				}
				if !tupleEq(got, want) {
					t.Fatalf("Access(%d) = %v, want %v", j, got, want)
				}
				if err := set.AccessInto(j, buf); err != nil {
					t.Fatalf("AccessInto(%d): %v", j, err)
				}
				if !tupleEq(buf, want) {
					t.Fatalf("AccessInto(%d) = %v, want %v", j, buf, want)
				}
				gj, ok := set.InvertedAccess(want)
				if !ok || gj != j {
					t.Fatalf("InvertedAccess(%v) = (%d, %v), want (%d, true)", want, gj, ok, j)
				}
			}
		})
	}
}

func TestSetAccessBatch(t *testing.T) {
	db, q, ref := prepare(t)
	n := ref.Index.Count()
	set, err := Build(db, q, 3, reduce.Options{}, access.BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	// Large enough to cross access.BatchSerialThreshold, with duplicates.
	js := make([]int64, 1500)
	for i := range js {
		js[i] = rng.Int63n(n)
	}
	got, err := set.AccessBatch(js, 4)
	if err != nil {
		t.Fatalf("AccessBatch: %v", err)
	}
	want, err := ref.Index.AccessBatch(js, 4)
	if err != nil {
		t.Fatalf("reference AccessBatch: %v", err)
	}
	for i := range js {
		if !tupleEq(got[i], want[i]) {
			t.Fatalf("batch slot %d (j=%d): got %v, want %v", i, js[i], got[i], want[i])
		}
	}
	// One out-of-range position fails the whole batch.
	if _, err := set.AccessBatch([]int64{0, n}, 0); err != access.ErrOutOfBounds {
		t.Fatalf("out-of-range batch error = %v, want ErrOutOfBounds", err)
	}
	if _, err := set.Access(-1); err != access.ErrOutOfBounds {
		t.Fatalf("Access(-1) error = %v, want ErrOutOfBounds", err)
	}
	// Cancelled context surfaces instead of answers.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := set.AccessBatchContext(ctx, js, 0); err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
}

func TestBuildSliceWindows(t *testing.T) {
	db, q, ref := prepare(t)
	n := ref.Index.Count()
	const k = 4
	full, err := Build(db, q, k, reduce.Options{}, access.BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var global int64
	for i := 0; i < k; i++ {
		sl, err := BuildSlice(db, q, i, k, reduce.Options{}, access.BuildOptions{})
		if err != nil {
			t.Fatalf("BuildSlice(%d): %v", i, err)
		}
		if sl.NumShards() != 1 {
			t.Fatalf("slice %d: NumShards = %d, want 1", i, sl.NumShards())
		}
		if sl.Count() != full.ShardCount(i) {
			t.Fatalf("slice %d: Count = %d, want %d", i, sl.Count(), full.ShardCount(i))
		}
		// The slice's local order is the corresponding window of the
		// global (= unsharded) order.
		for local := int64(0); local < sl.Count(); local++ {
			want, err := ref.Index.Access(global)
			if err != nil {
				t.Fatalf("reference Access(%d): %v", global, err)
			}
			got, err := sl.Access(local)
			if err != nil {
				t.Fatalf("slice %d Access(%d): %v", i, local, err)
			}
			if !tupleEq(got, want) {
				t.Fatalf("slice %d local %d: got %v, want %v", i, local, got, want)
			}
			global++
		}
	}
	if global != n {
		t.Fatalf("slices cover %d positions, want %d", global, n)
	}
	if _, err := BuildSlice(db, q, 4, 4, reduce.Options{}, access.BuildOptions{}); err == nil {
		t.Fatal("BuildSlice(4, 4) accepted an out-of-range slice")
	}
}

// TestMoreShardsThanRootRows pins the empty-chunk edge: K larger than the
// root relation leaves some shards with zero rows, which must behave as
// count-0 shards, not panic.
func TestMoreShardsThanRootRows(t *testing.T) {
	db, q, ref := prepare(t)
	rootRows := ref.FullJoin.Root.Rel.Len()
	k := rootRows + 5
	set, err := Build(db, q, k, reduce.Options{}, access.BuildOptions{})
	if err != nil {
		t.Fatalf("Build K=%d: %v", k, err)
	}
	if set.Count() != ref.Index.Count() {
		t.Fatalf("Count = %d, want %d", set.Count(), ref.Index.Count())
	}
	for j := int64(0); j < set.Count(); j += 7 {
		want, _ := ref.Index.Access(j)
		got, err := set.Access(j)
		if err != nil {
			t.Fatalf("Access(%d): %v", j, err)
		}
		if !tupleEq(got, want) {
			t.Fatalf("Access(%d) = %v, want %v", j, got, want)
		}
	}
}
