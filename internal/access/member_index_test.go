package access

import (
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/synth"
)

// firstCallMallocs reports the heap allocations of one call of f — unlike
// testing.AllocsPerRun there is no warm-up call, so lazy work done by the
// very first call is counted.
func firstCallMallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestNewIndexesEveryNode: whichever way a node relation came to be —
// borrowed, selected, semijoin-shrunk, projected, sorted — NewWithOptions
// leaves it with its membership index built, so the first probe of a fresh
// index neither builds nor allocates.
func TestNewIndexesEveryNode(t *testing.T) {
	db := relation.NewDatabase()
	r := db.MustCreate("R", "x", "y")
	s := db.MustCreate("S", "y", "z")
	for _, row := range [][2]relation.Value{{1, 10}, {2, 10}, {3, 20}, {4, 99}} {
		r.MustInsert(row[0], row[1]) // 99 dangles
	}
	for _, row := range [][2]relation.Value{{10, 100}, {10, 200}, {20, 300}, {77, 400}} {
		s.MustInsert(row[0], row[1]) // 77 dangles
	}
	wide := db.MustCreate("W", "x", "p", "q", "r")
	for i := 0; i < 40; i++ {
		wide.MustInsert(relation.Value(i%5), relation.Value(i), relation.Value(i%3), relation.Value(i%7))
	}
	queries := []*query.CQ{
		query.MustCQ("full", []string{"x", "y", "z"},
			query.NewAtom("R", query.V("x"), query.V("y")),
			query.NewAtom("S", query.V("y"), query.V("z"))),
		query.MustCQ("projected", []string{"x"},
			query.NewAtom("R", query.V("x"), query.V("y")),
			query.NewAtom("S", query.V("y"), query.V("z"))),
		query.MustCQ("selected", []string{"x", "y"},
			query.NewAtom("R", query.V("x"), query.V("y")),
			query.NewAtom("S", query.V("y"), query.C(100))),
		query.MustCQ("wide", []string{"x", "p", "q", "r", "y"},
			query.NewAtom("W", query.V("x"), query.V("p"), query.V("q"), query.V("r")),
			query.NewAtom("R", query.V("x"), query.V("y"))),
	}
	for _, q := range queries {
		for _, opts := range []reduce.Options{{}, {SkipFullReduce: true}, {CanonicalOrder: true}} {
			for _, build := range []BuildOptions{{}, {Workers: 1}, forceParallel} {
				fj, err := reduce.BuildFullJoin(db, q, opts)
				if err != nil {
					t.Fatalf("%s %+v: %v", q.Name, opts, err)
				}
				idx, err := NewWithOptions(fj, build)
				if err != nil {
					t.Fatalf("%s %+v: %v", q.Name, opts, err)
				}
				for _, n := range idx.nodes {
					if !n.rel.Indexed() {
						t.Fatalf("%s %+v %+v: node %s left NewWithOptions without its membership index", q.Name, opts, build, n.rel)
					}
					if n.rel.Len() == 0 {
						continue
					}
					probe := n.rel.Tuple(n.rel.Len() - 1)
					var found bool
					if m := firstCallMallocs(func() { found = n.rel.Contains(probe) }); m != 0 || !found {
						t.Fatalf("%s %+v %+v: first Contains on node %s: %d mallocs, found=%v", q.Name, opts, build, n.rel, m, found)
					}
				}
			}
		}
	}
}

// TestParallelMemberIndexMatchesSerial drives the membership index pass over
// DefaultSerialThreshold, so it really runs one task per node on the worker
// pool (the race detector watches it), and checks the result against the
// serial pass: same rows, same positions. At least one node must have been
// shrunk by a semijoin, so that the pass hashes rows instead of finding
// every index shared with its base.
func TestParallelMemberIndexMatchesSerial(t *testing.T) {
	db, q, err := synth.Star(synth.Config{Relations: 4, TuplesPerRelation: 12000, KeyDomain: 900, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) *Index {
		fj, err := reduce.BuildFullJoin(db, q, reduce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := NewWithOptions(fj, BuildOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	serial, par := build(1), build(4)
	total, owned := 0, 0
	for i, n := range par.nodes {
		want := serial.nodes[i].rel
		total += n.rel.Len()
		if !n.rel.Indexed() || n.rel.Len() != want.Len() {
			t.Fatalf("node %d: indexed=%v, %d rows, want %d", i, n.rel.Indexed(), n.rel.Len(), want.Len())
		}
		for pos, tu := range want.Tuples() {
			if n.rel.Position(tu) != pos {
				t.Fatalf("node %d: Position(%v) = %d, want %d", i, tu, n.rel.Position(tu), pos)
			}
		}
		shared := false
		for _, name := range db.Names() {
			base, _ := db.Relation(name)
			shared = shared || n.rel.SharesIndexWith(base)
		}
		if !shared {
			owned++
		}
	}
	if total < DefaultSerialThreshold {
		t.Fatalf("workload of %d tuples never leaves the serial path", total)
	}
	if owned == 0 {
		t.Fatal("every node shares its base's index: the pass built nothing")
	}
}
