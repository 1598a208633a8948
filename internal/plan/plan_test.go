package plan

import (
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/stats"
)

// chainDB builds R1(a,b) ⋈ R2(b,c) with deliberately lopsided sizes: R1 has
// one tuple, R2 has many, so a planner with working statistics can tell the
// orders apart.
func chainDB(t *testing.T) (*relation.Database, *query.CQ) {
	t.Helper()
	db := relation.NewDatabase()
	r1 := db.MustCreate("R1", "a", "b")
	r1.MustInsert(1, 1)
	r2 := db.MustCreate("R2", "b", "c")
	for i := 0; i < 50; i++ {
		r2.MustInsert(relation.Value(i%5), relation.Value(i))
	}
	q, err := query.NewCQ("Q", []string{"a", "b", "c"},
		[]query.Atom{
			query.NewAtom("R1", query.V("a"), query.V("b")),
			query.NewAtom("R2", query.V("b"), query.V("c")),
		})
	if err != nil {
		t.Fatal(err)
	}
	return db, q
}

func TestParseMode(t *testing.T) {
	for _, ok := range []string{"cost", "off"} {
		if m, err := ParseMode(ok); err != nil || string(m) != ok {
			t.Fatalf("ParseMode(%q) = %q, %v", ok, m, err)
		}
	}
	for _, bad := range []string{"", "Cost", "on", "auto"} {
		if _, err := ParseMode(bad); err == nil {
			t.Fatalf("ParseMode(%q) accepted", bad)
		}
	}
}

func TestPermutationsLexOrder(t *testing.T) {
	got := permutations(3)
	want := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	if len(got) != len(want) {
		t.Fatalf("permutations(3) has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("permutations(3)[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestChooseCQIdentityFirstAndTies(t *testing.T) {
	db, q := chainDB(t)
	_, p, err := ChooseCQ(db, q, ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != "cq" || len(p.Candidates) == 0 {
		t.Fatalf("plan = %+v", p)
	}
	for i, o := range p.Candidates[0].Order {
		if o != i {
			t.Fatalf("candidate 0 order = %v, want identity", p.Candidates[0].Order)
		}
	}
	if p.ChosenCost() > p.IdentityCost() {
		t.Fatalf("chosen %g > identity %g", p.ChosenCost(), p.IdentityCost())
	}
	// A tie must keep the identity: feed a symmetric query where every order
	// costs the same.
	sym := relation.NewDatabase()
	a := sym.MustCreate("A", "x", "y")
	b := sym.MustCreate("B", "y", "z")
	for i := 0; i < 10; i++ {
		a.MustInsert(relation.Value(i), relation.Value(i))
		b.MustInsert(relation.Value(i), relation.Value(i))
	}
	qs, err := query.NewCQ("S", []string{"x", "y", "z"},
		[]query.Atom{
			query.NewAtom("A", query.V("x"), query.V("y")),
			query.NewAtom("B", query.V("y"), query.V("z")),
		})
	if err != nil {
		t.Fatal(err)
	}
	planned, p, err := ChooseCQ(sym, qs, ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	if p.ChosenCost() == p.IdentityCost() && !p.Identity() {
		t.Fatalf("equal-cost plan moved off the as-parsed order: chose %d", p.Chosen)
	}
	if p.Identity() && planned != qs {
		t.Fatal("identity plan must return the query pointer unchanged")
	}
}

func TestChooseCQPermutesBodyOnly(t *testing.T) {
	db, q := chainDB(t)
	_, p, err := ChooseCQ(db, q, ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Candidates {
		pq := permuteBody(q, c.Order)
		if pq.Name != q.Name || len(pq.Head) != len(q.Head) || len(pq.Body) != len(q.Body) {
			t.Fatalf("permuted query shape changed: %v", pq)
		}
		for i, h := range q.Head {
			if pq.Head[i] != h {
				t.Fatalf("head changed under permutation: %v", pq.Head)
			}
		}
		seen := make(map[string]int)
		for _, a := range q.Body {
			seen[a.String()]++
		}
		for _, a := range pq.Body {
			seen[a.String()]--
		}
		for s, n := range seen {
			if n != 0 {
				t.Fatalf("atom multiset changed under order %v: %s off by %d", c.Order, s, n)
			}
		}
	}
}

func TestChooseCQErrors(t *testing.T) {
	db, _ := chainDB(t)
	missing, err := query.NewCQ("M", []string{"x", "y"},
		[]query.Atom{query.NewAtom("NoSuch", query.V("x"), query.V("y"))})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ChooseCQ(db, missing, ModeCost); err == nil {
		t.Fatal("unknown relation did not error")
	}
	wrongArity, err := query.NewCQ("W", []string{"x"},
		[]query.Atom{query.NewAtom("R1", query.V("x"))})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ChooseCQ(db, wrongArity, ModeCost); err == nil {
		t.Fatal("arity mismatch did not error")
	}
}

func TestExplainRendering(t *testing.T) {
	db, q := chainDB(t)
	_, p, err := ChooseCQ(db, q, ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{"plan: cq cost", "candidate tree(s)", "(as parsed)", "*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain() missing %q:\n%s", want, out)
		}
	}
}

// TestBodyOrdersHeuristicBeyondExact: above maxExactAtoms the enumeration
// must stay polynomial — identity, two size-sorted orders, and the n-1
// adjacent swaps — instead of n! permutations.
func TestBodyOrdersHeuristicBeyondExact(t *testing.T) {
	db := relation.NewDatabase()
	n := maxExactAtoms + 2
	var body []query.Atom
	head := []string{"x0"}
	for i := 0; i < n; i++ {
		name := "T" + string(rune('A'+i))
		r := db.MustCreate(name, "a", "b")
		for j := 0; j <= i; j++ { // distinct sizes so the sorts differ
			r.MustInsert(relation.Value(j), relation.Value(j))
		}
		lo := "x" + string(rune('0'+i))
		hi := "x" + string(rune('0'+i+1))
		body = append(body, query.NewAtom(name, query.V(lo), query.V(hi)))
		head = append(head, hi)
	}
	q, err := query.NewCQ("big", head, body)
	if err != nil {
		t.Fatal(err)
	}
	est, err := atomEstimates(db, q, make(map[string]*stats.Stats))
	if err != nil {
		t.Fatal(err)
	}
	orders := bodyOrders(q, est)
	if want := 3 + (n - 1); len(orders) != want {
		t.Fatalf("bodyOrders yielded %d orders for %d atoms, want %d", len(orders), n, want)
	}
	for i, o := range orders[0] {
		if o != i {
			t.Fatalf("first heuristic order is not the identity: %v", orders[0])
		}
	}
	_, p, err := ChooseCQ(db, q, ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	if p.Enumerated != len(orders) {
		t.Fatalf("Enumerated = %d, want %d", p.Enumerated, len(orders))
	}
}

func TestChooseUCQKeepsFirstDisjunct(t *testing.T) {
	db := relation.NewDatabase()
	small := db.MustCreate("Small", "a", "b")
	small.MustInsert(1, 1)
	big := db.MustCreate("Big", "a", "b")
	for i := 0; i < 40; i++ {
		big.MustInsert(relation.Value(i), relation.Value(i))
	}
	mid := db.MustCreate("Mid", "a", "b")
	for i := 0; i < 10; i++ {
		mid.MustInsert(relation.Value(i), relation.Value(i))
	}
	mk := func(name, rel string) *query.CQ {
		q, err := query.NewCQ(name, []string{"a", "b"},
			[]query.Atom{query.NewAtom(rel, query.V("a"), query.V("b"))})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	u, err := query.NewUCQ("U", mk("Q1", "Small"), mk("Q2", "Mid"), mk("Q3", "Big"))
	if err != nil {
		t.Fatal(err)
	}
	planned, p, err := ChooseUCQ(db, u, ModeCost)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range p.Candidates {
		if c.Order[0] != 0 {
			t.Fatalf("candidate %d moved disjunct 0: %v", i, c.Order)
		}
	}
	if planned.Disjuncts[0] != u.Disjuncts[0] {
		t.Fatal("planned union changed its first disjunct")
	}
	// The scan-depth model puts the heavy disjunct before the lighter one.
	if !p.Identity() {
		got := p.Candidates[p.Chosen].Order
		if got[1] != 2 || got[2] != 1 {
			t.Fatalf("chosen order %v, want the heavy disjunct promoted to position 1", got)
		}
	}
}
