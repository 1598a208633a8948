package renum

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parser"
	"repro/internal/synth"
)

// queryspaceSeeds are TestQuickAccessBijection's five queries.
var queryspaceSeeds = []string{
	"full(a, b, c) :- R(a, b), S(b, c).",
	"proj(a, b) :- R(a, b), S(b, c).",
	"selfjoin(a, b, c) :- R(a, b), R(b, c).",
	"const(b, c) :- R(0, b), S(b, c).",
	"repeat(a) :- R(a, a).",
}

// queryspaceJoinBudget bounds the product of the body's relation sizes, the
// work of the naive oracle's backtracking join in the worst case.
const queryspaceJoinBudget = 20000

// FuzzQuerySpace holds random queries, on every build path, to the paper's
// contract, with internal/naive as the oracle. The input is a datalog
// program — one rule a CQ, two or three rules of one head arity a union —
// and the seed, size and value domain of a random database over its
// relations. A program that does not parse is replaced by a query drawn
// from the seed (synth.RandomCQ, constants included), extended about two
// times in three into a union of two or three disjuncts: copies of it with
// some atoms moved to twin relations of the same arity, so that their
// enumeration orders are compatible.
//
// For a CQ, Open refuses with ErrCyclic or ErrNotFreeConnex exactly when
// the query is cyclic or not free-connex. Otherwise Count is the number of
// answers, Access is a bijection onto them — and a batch of positions
// answers what the single probes answer — and InvertedAccess is its
// inverse, on every build path: the planner off and on, WithCanonical,
// worker budgets 1 and 4, a snapshot save and open, and SliceView windows
// for K ∈ {1, 2, 3}, which concatenate to the whole. The paths that keep
// the join tree keep the order too. A union goes through the mc-UCQ handle
// on the same paths (refusals of a non-free-connex or incompatible union
// skip it; see checkUCQSpace), and Shuffled and Algorithm 5 each emit it
// exactly once. A full acyclic CQ also goes through the dynamic index
// (WithDynamic) before and after a random batch of updates; see
// checkDynamicSpace. No build path writes the database: every Open, and the
// whole run, leaves every base column as it was (openReadOnly).
func FuzzQuerySpace(f *testing.F) {
	for i, src := range queryspaceSeeds {
		f.Add(src, int64(i), uint8(40), uint8(4))
	}
	// Trees with an inner node of two children, three levels, a union of
	// them: the shapes the mixed-radix split and the grouped probe branch on.
	for i, src := range []string{
		"star(a, b, c, d) :- R(a, b), S(b, c), T(b, d).",
		"chain(a, b, c, d) :- R(a, b), S(b, c), T(c, d).",
		"tree(a, c, d, e) :- R(a, b), S(b, c), T(c, d), W(c, e).",
		"U(a, b, c) :- R(a, b), S(b, c), T(b, d). U(a, b, c) :- R(a, b), W(b, c), T(b, d).",
	} {
		f.Add(src, int64(i), uint8(20), uint8(3))
	}
	for seed := int64(0); seed < 40; seed++ {
		f.Add("", seed, uint8(seed*7), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64, rowsRaw, domRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		dom := int(domRaw%6) + 2
		qs := queryspaceQueries(src, rng, dom)
		if qs == nil {
			return
		}
		atoms := 1
		for _, q := range qs {
			atoms = max(atoms, len(q.Body))
		}
		rows := min(int(rowsRaw%60)+1, int(math.Pow(queryspaceJoinBudget, 1/float64(atoms))))
		db, err := synth.RandomDB(rng, qs, rows, dom)
		if err != nil {
			return // a relation at two arities
		}
		before := baseColumns(db)
		if len(qs) == 1 {
			checkCQSpace(t, db, qs[0])
			if qs[0].IsFull() && IsAcyclic(qs[0]) {
				checkDynamicSpace(t, db, qs[0], rng, rows, dom)
			}
		} else {
			checkUCQSpace(t, db, MustUCQ("U", qs...))
		}
		sameBaseColumns(t, "the whole run", db, before)
	})
}

// queryspaceQueries returns src's rules when they form a CQ or a union the
// fuzz can afford (at most three rules of four atoms of arity ≤ 3, one head
// arity), nil when src parses to anything else, and a drawn query or union
// when src does not parse.
func queryspaceQueries(src string, rng *rand.Rand, dom int) []*CQ {
	rules, err := parser.ParseProgram(src, nil)
	if err == nil {
		if len(rules) > 3 {
			return nil
		}
		for _, q := range rules {
			if len(q.Body) > 4 || len(q.Head) != len(rules[0].Head) {
				return nil
			}
			for _, a := range q.Body {
				if len(a.Terms) > 3 {
					return nil
				}
			}
		}
		return rules
	}
	q := synth.RandomCQ(rng, "Q", true, dom)
	if q == nil {
		return nil
	}
	qs := []*CQ{q}
	for d, extra := 1, rng.Intn(3); d <= extra; d++ {
		body := append([]Atom(nil), q.Body...)
		for i := range body {
			if rng.Intn(2) == 0 {
				body[i].Relation = fmt.Sprintf("%s_%d", body[i].Relation, d)
			}
		}
		qs = append(qs, MustCQ(fmt.Sprintf("Q%d", d), q.Head, body...))
	}
	return qs
}

func checkCQSpace(t *testing.T, db *Database, q *CQ) {
	h, err := openReadOnly(t, db, q, WithPlanner(PlannerOff))
	switch {
	case !IsAcyclic(q):
		if !errors.Is(err, ErrCyclic) {
			t.Fatalf("%v is cyclic: Open = %v, want ErrCyclic", q, err)
		}
		return
	case !IsFreeConnex(q):
		if !errors.Is(err, ErrNotFreeConnex) {
			t.Fatalf("%v is not free-connex: Open = %v, want ErrNotFreeConnex", q, err)
		}
		return
	case err != nil:
		t.Fatalf("%v: Open: %v", q, err)
	}
	want, err := Evaluate(db, q)
	if err != nil {
		t.Fatal(err)
	}
	ref := checkSpace(t, fmt.Sprintf("%v planner off", q), h, want)
	for _, p := range []struct {
		name     string
		sameTree bool
		opts     []Option
	}{
		{"planner cost", false, nil},
		{"canonical", false, []Option{WithPlanner(PlannerOff), WithCanonical()}},
		{"workers 1", true, []Option{WithPlanner(PlannerOff), WithWorkers(1)}},
		{"workers 4", true, []Option{WithPlanner(PlannerOff), WithWorkers(4)}},
	} {
		name := fmt.Sprintf("%v %s", q, p.name)
		hp, err := openReadOnly(t, db, q, p.opts...)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		seq := checkSpace(t, name, hp, want)
		if p.sameTree {
			sameSequence(t, name, seq, ref)
		}
	}
	name := fmt.Sprintf("%v snapshot", q)
	sameSequence(t, name, checkSpace(t, name, reopened(t, db, q, h), want), ref)
	checkWindows(t, fmt.Sprint(q), h, ref)
}

// checkDynamicSpace holds a WithDynamic handle over the full acyclic CQ q
// to Count, the Access bijection and InvertedAccess — once on db, and once
// after a random batch of about `rows` inserts and deletes over [0, dom),
// against naive evaluation on a copy of db that took the same batch. The
// dynamic index keeps no order, so only the answer sets are compared; an
// update that leaves the copy as it was must report no change.
func checkDynamicSpace(t *testing.T, db *Database, q *CQ, rng *rand.Rand, rows, dom int) {
	h, err := openReadOnly(t, db, q, WithDynamic())
	if err != nil {
		t.Fatalf("%v: Open WithDynamic: %v", q, err)
	}
	want, err := Evaluate(db, q)
	if err != nil {
		t.Fatal(err)
	}
	checkSpace(t, fmt.Sprintf("%v dynamic", q), h, want)

	// The copy: each relation's tuples in insertion order (deletes draw
	// from them, so that most hit) and the set of those still in it.
	var names []string
	seen := map[string][]Tuple{}
	live := map[string]map[string]Tuple{}
	for _, a := range q.Body {
		if _, ok := live[a.Relation]; ok {
			continue
		}
		r, err := db.Relation(a.Relation)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, a.Relation)
		seen[a.Relation] = r.Tuples()
		live[a.Relation] = map[string]Tuple{}
		for _, tu := range seen[a.Relation] {
			live[a.Relation][tu.Key()] = tu
		}
	}
	upd, err := h.Updater()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < rows; k++ {
		rel := names[rng.Intn(len(names))]
		var tu Tuple
		insert := rng.Intn(3) > 0
		if insert || len(seen[rel]) == 0 {
			r, _ := db.Relation(rel)
			tu = make(Tuple, r.Arity())
			for i := range tu {
				tu[i] = Value(rng.Intn(dom))
			}
		} else {
			tu = seen[rel][rng.Intn(len(seen[rel]))]
		}
		_, had := live[rel][tu.Key()]
		var changed bool
		if insert {
			changed, err = upd.Insert(rel, tu)
			if !had {
				live[rel][tu.Key()] = tu
				seen[rel] = append(seen[rel], tu)
			}
		} else {
			changed, err = upd.Delete(rel, tu)
			delete(live[rel], tu.Key())
		}
		if err != nil || changed && had == insert {
			t.Fatalf("%v dynamic: insert %t of %s%v changed %t, err %v; the copy held it: %t", q, insert, rel, tu, changed, err, had)
		}
	}
	after := NewDatabase()
	for _, rel := range names {
		r, _ := db.Relation(rel)
		attrs := make([]string, r.Arity())
		for i := range attrs {
			attrs[i] = fmt.Sprintf("%s_%d", rel, i)
		}
		ar := after.MustCreate(rel, attrs...)
		for _, tu := range live[rel] {
			if _, err := ar.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want, err = Evaluate(after, q); err != nil {
		t.Fatal(err)
	}
	checkSpace(t, fmt.Sprintf("%v dynamic after %d updates", q, rows), h, want)
}

// checkUCQSpace opens u as renumd does, with no options: the fence build
// ranks every element of every intersection, so a union whose orders are not
// compatible is refused with ErrIncompatible (and skipped here) rather than
// opened to answer wrong. testdata/fuzz/FuzzQuerySpace pins three such unions
// that a check of the fenced elements alone let through.
func checkUCQSpace(t *testing.T, db *Database, u *UCQ) {
	h, err := openReadOnly(t, db, u)
	if errors.Is(err, ErrCyclic) || errors.Is(err, ErrNotFreeConnex) || errors.Is(err, ErrIncompatible) {
		return
	}
	if err != nil {
		t.Fatalf("%v: Open: %v", u, err)
	}
	want, err := EvaluateUCQ(db, u)
	if err != nil {
		t.Fatal(err)
	}
	ref := checkSpace(t, fmt.Sprint(u), h, want)
	for _, w := range []int{0, 1, 4} {
		name := fmt.Sprintf("%v workers %d", u, w)
		hw, err := openReadOnly(t, db, u, WithWorkers(w))
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		sameSequence(t, name, checkSpace(t, name, hw, want), ref)
	}
	name := fmt.Sprintf("%v snapshot", u)
	sameSequence(t, name, checkSpace(t, name, reopened(t, db, u, h), want), ref)
	checkWindows(t, fmt.Sprint(u), h, ref)

	var shuffled []Tuple
	for a, err := range h.Shuffled(rand.New(rand.NewSource(1))) {
		if err != nil {
			t.Fatal(err)
		}
		shuffled = append(shuffled, a)
	}
	exactlyOnce(t, fmt.Sprintf("%v Shuffled", u), shuffled, want)
	e, err := NewRandomOrderUnion(db, u, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("%v: Algorithm 5: %v", u, err)
	}
	var drawn []Tuple
	for a, ok := e.Next(); ok; a, ok = e.Next() {
		drawn = append(drawn, a)
	}
	exactlyOnce(t, fmt.Sprintf("%v Algorithm 5", u), drawn, want)
}

// checkSpace checks that h's positions are a bijection onto want, that a
// batch of every position in a scrambled order answers what the single
// probes do, and, when h inverts, that InvertedAccess undoes Access and
// refuses a tuple outside want. It returns the answers in position order.
func checkSpace(t *testing.T, name string, h *Handle, want []Tuple) []Tuple {
	t.Helper()
	n := h.Count()
	if n != int64(len(want)) {
		t.Fatalf("%s: Count = %d, want %d", name, n, len(want))
	}
	seq := make([]Tuple, n)
	for j := range seq {
		a, err := h.Access(int64(j))
		if err != nil {
			t.Fatalf("%s: Access(%d): %v", name, j, err)
		}
		seq[j] = a
	}
	exactlyOnce(t, name, seq, want)
	js := make([]int64, n)
	for i, p := range rand.New(rand.NewSource(n)).Perm(int(n)) {
		js[i] = int64(p)
	}
	batch, err := h.AccessBatch(js)
	if err != nil {
		t.Fatalf("%s: AccessBatch: %v", name, err)
	}
	for i, j := range js {
		if !batch[i].Equal(seq[j]) {
			t.Fatalf("%s: AccessBatch answers %v at %d, Access %v", name, batch[i], j, seq[j])
		}
	}
	if !h.Has(CapInvert) {
		return seq
	}
	inv, err := h.Inverter()
	if err != nil {
		t.Fatal(err)
	}
	for j, a := range seq {
		if got, ok := inv.InvertedAccess(a); !ok || got != int64(j) {
			t.Fatalf("%s: InvertedAccess(Access(%d) = %v) = %d, %v", name, j, a, got, ok)
		}
	}
	outside := make(Tuple, len(h.Head()))
	for i := range outside {
		outside[i] = -1 // every value of the database is ≥ 0
	}
	if got, ok := inv.InvertedAccess(outside); ok && len(outside) > 0 {
		t.Fatalf("%s: InvertedAccess(%v) = %d for a non-answer", name, outside, got)
	}
	return seq
}

// exactlyOnce checks that got holds every tuple of want once and nothing
// else.
func exactlyOnce(t *testing.T, name string, got, want []Tuple) {
	t.Helper()
	left := make(map[string]bool, len(want))
	for _, w := range want {
		left[w.Key()] = true
	}
	for _, a := range got {
		if !left[a.Key()] {
			t.Fatalf("%s: %v is a repeat or not an answer", name, a)
		}
		delete(left, a.Key())
	}
	if len(left) > 0 {
		t.Fatalf("%s: %d of %d answers never emitted", name, len(left), len(want))
	}
}

func sameSequence(t *testing.T, name string, got, want []Tuple) {
	t.Helper()
	for j := range want {
		if !got[j].Equal(want[j]) {
			t.Fatalf("%s: answer %d is %v, the reference build's %v", name, j, got[j], want[j])
		}
	}
}

// reopened saves h and returns its entry restored from the snapshot.
func reopened(t *testing.T, db *Database, q Query, h *Handle) *Handle {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, db, 1, []CatalogEntry{{Name: "Q", Q: q, H: h}}); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	return cat.Entries()[0].H
}

// checkWindows checks that h's SliceView windows for K ∈ {1, 2, 3}
// concatenate to ref, and that each window's inverted access undoes its own
// positions.
func checkWindows(t *testing.T, name string, h *Handle, ref []Tuple) {
	t.Helper()
	for k := 1; k <= 3; k++ {
		var all []Tuple
		for i := 0; i < k; i++ {
			w, err := SliceView(h, i, k)
			if err != nil {
				t.Fatal(err)
			}
			inv, ierr := w.Inverter()
			for j := int64(0); j < w.Count(); j++ {
				a, err := w.Access(j)
				if err != nil {
					t.Fatalf("%s window %d/%d: Access(%d): %v", name, i, k, j, err)
				}
				if ierr == nil {
					if got, ok := inv.InvertedAccess(a); !ok || got != j {
						t.Fatalf("%s window %d/%d: InvertedAccess(Access(%d)) = %d, %v", name, i, k, j, got, ok)
					}
				}
				all = append(all, a)
			}
		}
		if len(all) != len(ref) {
			t.Fatalf("%s: %d windows hold %d answers, want %d", name, k, len(all), len(ref))
		}
		sameSequence(t, fmt.Sprintf("%s windows of %d", name, k), all, ref)
	}
}
