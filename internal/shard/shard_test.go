package shard

import (
	"errors"
	"fmt"
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

// TestSetMatchesUnshardedOrder: for every K, the shards tile the unsharded
// order — Locate walks them in shard order, each from local position 0 —
// and every global position answers what the unsharded index answers.
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
			buf := make(relation.Tuple, len(set.Head()))
			prevShard, prevLocal := 0, int64(-1)
			for j := int64(0); j < n; j++ {
				sh, local, err := set.Locate(j)
				if err != nil {
					t.Fatalf("Locate(%d): %v", j, err)
				}
				if sh >= k || !(sh == prevShard && local == prevLocal+1 || sh > prevShard && local == 0) {
					t.Fatalf("Locate(%d) = (%d, %d) after (%d, %d): shards do not tile the order", j, sh, local, prevShard, prevLocal)
				}
				prevShard, prevLocal = sh, local
				want, err := ref.Index.Access(j)
				if err != nil {
					t.Fatalf("reference Access(%d): %v", j, err)
				}
				if err := set.AccessInto(j, buf); err != nil {
					t.Fatalf("AccessInto(%d): %v", j, err)
				}
				if !tupleEq(buf, want) {
					t.Fatalf("AccessInto(%d) = %v, want %v", j, buf, want)
				}
			}
			for _, j := range []int64{-1, n} {
				if err := set.AccessInto(j, buf); err != access.ErrOutOfBounds {
					t.Fatalf("AccessInto(%d) error = %v, want ErrOutOfBounds", j, err)
				}
			}
		})
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
	got := make(relation.Tuple, len(set.Head()))
	for j := int64(0); j < set.Count(); j += 7 {
		want, _ := ref.Index.Access(j)
		if err := set.AccessInto(j, got); err != nil {
			t.Fatalf("AccessInto(%d): %v", j, err)
		}
		if !tupleEq(got, want) {
			t.Fatalf("AccessInto(%d) = %v, want %v", j, got, want)
		}
	}
}

// TestBuildCountOverflow: a star join with 2^65 answers split into 8 shards
// of 1024 root rows × 2^52 each — every shard fits an int64 position, their
// sum does not — fails Build with ErrCountOverflow instead of handing out a
// negative Count.
func TestBuildCountOverflow(t *testing.T) {
	db := relation.NewDatabase()
	head := []string{"k"}
	var body []query.Atom
	for i := 0; i < 5; i++ {
		name, v := fmt.Sprintf("R%d", i), fmt.Sprintf("v%d", i)
		r := db.MustCreate(name, "k", v)
		for j := 0; j < 8192; j++ {
			r.MustInsert(0, relation.Value(j))
		}
		head = append(head, v)
		body = append(body, query.NewAtom(name, query.V("k"), query.V(v)))
	}
	q := query.MustCQ("star", head, body...)
	if set, err := Build(db, q, 8, reduce.Options{}, access.BuildOptions{}); !errors.Is(err, access.ErrCountOverflow) {
		t.Fatalf("Build K=8: set %v, err %v; want ErrCountOverflow", set, err)
	}
}
