package reduce

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/synth"
)

// referenceInstantiate is the definition Instantiate must keep: Filter the
// base relation by the atom's constants and repeated-variable equalities,
// then set-Project onto the first occurrence of every variable — both
// through the duplicate-checking operators.
func referenceInstantiate(t *testing.T, base *relation.Relation, a query.Atom) []relation.Tuple {
	t.Helper()
	first := make(map[string]int)
	var keep []string
	for pos, term := range a.Terms {
		if term.IsVar() {
			if _, ok := first[term.Var]; !ok {
				first[term.Var] = pos
				keep = append(keep, base.Schema()[pos])
			}
		}
	}
	sel := base.Filter("sel", func(tu relation.Tuple) bool {
		for pos, term := range a.Terms {
			if !term.IsVar() {
				if tu[pos] != term.Const {
					return false
				}
			} else if tu[pos] != tu[first[term.Var]] {
				return false
			}
		}
		return true
	})
	proj, err := sel.Project("proj", keep)
	if err != nil {
		t.Fatal(err)
	}
	return proj.Tuples()
}

// TestInstantiateMatchesFilterProject pins the dedup-free Instantiate to the
// old semantics on random atoms with constants and repeated variables: the
// same rows in the same order, no duplicate among them, and no row hashed.
// Bases of arity 1–4 cover the packed and the string-keyed index; values
// outside [0, 2^32) cover the unpackable pair.
func TestInstantiateMatchesFilterProject(t *testing.T) {
	rng := rand.New(rand.NewSource(20200614))
	domain := []relation.Value{0, 1, 2, 3, -1, 1 << 40}
	for trial := 0; trial < 400; trial++ {
		arity := 1 + rng.Intn(4)
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		db := relation.NewDatabase()
		base := db.MustCreate("R", attrs...)
		for i, n := 0, rng.Intn(60); i < n; i++ {
			row := make([]relation.Value, arity)
			for k := range row {
				row[k] = domain[rng.Intn(len(domain))]
			}
			base.MustInsert(row...) // duplicates rejected: the base is a set
		}
		terms := make([]query.Term, arity)
		var head []string
		seen := make(map[string]bool)
		for k := range terms {
			if rng.Intn(3) == 0 {
				terms[k] = query.C(domain[rng.Intn(len(domain))])
				continue
			}
			v := fmt.Sprintf("x%d", rng.Intn(arity)) // small pool: repeats are common
			terms[k] = query.V(v)
			if !seen[v] {
				seen[v] = true
				head = append(head, v)
			}
		}
		a := query.NewAtom("R", terms...)
		q, err := query.NewCQ("q", head, []query.Atom{a})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Instantiate(db, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceInstantiate(t, base, a)
		if got.Len() != len(want) {
			t.Fatalf("trial %d: atom %s over %v: %d rows, want %d", trial, a, base.Tuples(), got.Len(), len(want))
		}
		dup := make(map[string]bool, len(want))
		for i, w := range want {
			g := got.Tuple(i)
			if !g.Equal(w) {
				t.Fatalf("trial %d: atom %s: row %d = %v, want %v", trial, a, i, g, w)
			}
			if dup[g.Key()] {
				t.Fatalf("trial %d: atom %s: duplicate row %v", trial, a, g)
			}
			dup[g.Key()] = true
		}
		// Instantiate hashes no row: the atom's membership index is either
		// deferred or, for an atom that selects nothing, the base's own
		// table (relation.Relation.Lend), never a fresh one.
		if got.Indexed() && !got.SharesIndexWith(base) {
			t.Fatalf("trial %d: Instantiate built a membership index of its own", trial)
		}
		for _, w := range want {
			if !got.Contains(w) {
				t.Fatalf("trial %d: %v missing from the (deferred) index", trial, w)
			}
		}
	}
}

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

// TestBuildFullJoinIndexesSurvivors: whichever way a node relation came to
// be — copied, selected, semijoin-shrunk, projected, sorted — it leaves
// BuildFullJoin with its membership index built, so the first probe of a
// fresh structure neither builds nor allocates.
func TestBuildFullJoinIndexesSurvivors(t *testing.T) {
	db := chainDB()
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
		for _, opts := range []Options{{}, {SkipFullReduce: true}, {CanonicalOrder: true}, {Workers: 1}} {
			fj, err := BuildFullJoin(db, q, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", q.Name, opts, err)
			}
			for _, n := range fj.Nodes {
				if !n.Rel.Indexed() {
					t.Fatalf("%s %+v: node %s left BuildFullJoin without its membership index", q.Name, opts, n.Rel)
				}
				if n.Rel.Len() == 0 {
					continue
				}
				probe := n.Rel.Tuple(n.Rel.Len() - 1)
				var found bool
				if m := firstCallMallocs(func() { found = n.Rel.Contains(probe) }); m != 0 || !found {
					t.Fatalf("%s %+v: first Contains on node %s: %d mallocs, found=%v", q.Name, opts, n.Rel, m, found)
				}
			}
		}
	}
}

// TestParallelIndexBuildMatchesSerial drives the survivors' index build over
// the serial threshold, so it really runs one task per node on the worker
// pool (the race detector watches it), and checks the result against the
// serial build: same rows, same positions.
func TestParallelIndexBuildMatchesSerial(t *testing.T) {
	db, q, err := synth.Star(synth.Config{Relations: 4, TuplesPerRelation: 12000, KeyDomain: 900, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := BuildFullJoin(db, q, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildFullJoin(db, q, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, n := range par.Nodes {
		want := serial.Nodes[i].Rel
		total += n.Rel.Len()
		if !n.Rel.Indexed() || n.Rel.Len() != want.Len() {
			t.Fatalf("node %d: indexed=%v, %d rows, want %d", i, n.Rel.Indexed(), n.Rel.Len(), want.Len())
		}
		for pos, tu := range want.Tuples() {
			if n.Rel.Position(tu) != pos {
				t.Fatalf("node %d: Position(%v) = %d, want %d", i, tu, n.Rel.Position(tu), pos)
			}
		}
	}
	if total < indexSerialThreshold {
		t.Fatalf("workload of %d tuples never leaves the serial path", total)
	}
}
