package relation

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestTupleKeyDistinct(t *testing.T) {
	f := func(a, b []int64) bool {
		ta := make(Tuple, len(a))
		for i, v := range a {
			ta[i] = Value(v)
		}
		tb := make(Tuple, len(b))
		for i, v := range b {
			tb[i] = Value(v)
		}
		if ta.Equal(tb) {
			return ta.Key() == tb.Key()
		}
		return len(ta) != len(tb) || ta.Key() != tb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTupleKeyFixedWidth(t *testing.T) {
	a := Tuple{1, 2}
	b := Tuple{1, 2, 3}
	if a.Key() == b.Key() {
		t.Fatal("keys of different arities collided")
	}
	// Negative values must round-trip distinctly too.
	c := Tuple{-1}
	d := Tuple{1}
	if c.Key() == d.Key() {
		t.Fatal("negative/positive collision")
	}
}

func TestTupleProjectKeyMatchesProject(t *testing.T) {
	tu := Tuple{10, 20, 30, 40}
	pos := []int{3, 1}
	if tu.ProjectKey(pos) != tu.Project(pos).Key() {
		t.Fatal("ProjectKey disagrees with Project().Key()")
	}
}

func TestTupleClone(t *testing.T) {
	a := Tuple{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestDictInternRoundTrip(t *testing.T) {
	d := NewDict()
	v1 := d.Intern("hello")
	v2 := d.Intern("world")
	v3 := d.Intern("hello")
	if v1 != v3 {
		t.Fatal("re-interning gave a different value")
	}
	if v1 == v2 {
		t.Fatal("distinct strings interned to same value")
	}
	if d.String(v1) != "hello" || d.String(v2) != "world" {
		t.Fatal("String round trip failed")
	}
	if got := d.String(0); got != "" {
		t.Fatalf("value 0 should decode to empty string, got %q", got)
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Fatal("Lookup found absent string")
	}
	if d.Len() != 3 { // "", hello, world
		t.Fatalf("Len = %d, want 3", d.Len())
	}
}

func TestDictStringUninterned(t *testing.T) {
	d := NewDict()
	if got := d.String(12345); got != "#12345" {
		t.Fatalf("uninterned String = %q", got)
	}
}

// TestDictStringNoSlotCollision pins the bounds-check regression: the old
// comparison converted the value to int before comparing against the slice
// length, so a huge never-interned value (e.g. 2^32 + slot) truncates on
// 32-bit platforms and renders a *real* intern slot's string. The rendering
// of an out-of-range value must always be "#N", for any N.
func TestDictStringNoSlotCollision(t *testing.T) {
	d := NewDict()
	d.Intern("a") // slot 1
	d.Intern("b") // slot 2
	for _, v := range []Value{
		Value(1) << 32,       // truncates to 0 under int32 conversion
		Value(1)<<32 + 2,     // truncates to real slot 2
		Value(math.MaxInt64), // truncates to -1
		-1,                   // negative: never a slot
		Value(math.MinInt64), // negative extreme
		3,                    // one past the last real slot
	} {
		want := fmt.Sprintf("#%d", int64(v))
		if got := d.String(v); got != want {
			t.Errorf("String(%d) = %q, want %q (collided with an intern slot)", int64(v), got, want)
		}
	}
}

// TestDictStringDuringGrowth exercises the race-adjacent lookup path: while
// one goroutine interns new strings (growing byValue), concurrent String
// calls on a value that is out of range at call time must return either the
// stable "#N" rendering or — once the slot is filled — exactly the string
// interned at N, never a different slot's string.
func TestDictStringDuringGrowth(t *testing.T) {
	d := NewDict()
	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			d.Intern(fmt.Sprintf("s%d", i))
		}
	}()
	probe := Value(n / 2) // becomes the slot of "s<n/2-1>" mid-run
	wantLate := fmt.Sprintf("s%d", int(probe)-1)
	wantEarly := fmt.Sprintf("#%d", int64(probe))
	for i := 0; i < 10000; i++ {
		if got := d.String(probe); got != wantEarly && got != wantLate {
			t.Fatalf("String(%d) = %q mid-growth, want %q or %q", int64(probe), got, wantEarly, wantLate)
		}
	}
	<-done
	if got := d.String(probe); got != wantLate {
		t.Fatalf("String(%d) = %q after growth, want %q", int64(probe), got, wantLate)
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("a", "b", "a"); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Fatal("empty attribute accepted")
	}
	s := MustSchema("x", "y", "z")
	if s.Position("y") != 1 || s.Position("w") != -1 {
		t.Fatal("Position wrong")
	}
	if !s.Contains("z") || s.Contains("q") {
		t.Fatal("Contains wrong")
	}
}

func TestSchemaIntersect(t *testing.T) {
	a := MustSchema("x", "y", "z")
	b := MustSchema("z", "w", "x")
	got := a.Intersect(b)
	if len(got) != 2 || got[0] != "x" || got[1] != "z" {
		t.Fatalf("Intersect = %v", got)
	}
}

func TestSchemaPositionsError(t *testing.T) {
	s := MustSchema("x", "y")
	if _, err := s.Positions([]string{"x", "q"}); err == nil {
		t.Fatal("missing attribute not reported")
	}
}

func TestRelationInsertSetSemantics(t *testing.T) {
	r := NewRelation("R", MustSchema("a", "b"))
	added, err := r.Insert(Tuple{1, 2})
	if err != nil || !added {
		t.Fatal("first insert failed")
	}
	added, err = r.Insert(Tuple{1, 2})
	if err != nil || added {
		t.Fatal("duplicate insert not deduplicated")
	}
	if _, err := r.Insert(Tuple{1}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if !r.Contains(Tuple{1, 2}) || r.Contains(Tuple{2, 1}) {
		t.Fatal("Contains wrong")
	}
	if r.Position(Tuple{1, 2}) != 0 || r.Position(Tuple{9, 9}) != -1 {
		t.Fatal("Position wrong")
	}
}

func TestRelationInsertionOrderPreserved(t *testing.T) {
	r := NewRelation("R", MustSchema("a"))
	for i := 0; i < 100; i++ {
		r.MustInsert(Value(i * 7 % 100))
	}
	for i := 0; i < 100; i++ {
		if r.Tuple(i)[0] != Value(i*7%100) {
			t.Fatal("insertion order not preserved")
		}
	}
}

// TestRelationLend: a lent relation is the lender's tuples under a new name
// and schema of the same arity.
func TestRelationLend(t *testing.T) {
	r := NewRelation("R", MustSchema("a", "b"))
	r.MustInsert(1, 2)
	v, err := r.Lend("S", MustSchema("x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Name() != "S" || !v.Schema().Equal(MustSchema("x", "y")) || v.Len() != 1 || !v.Contains(Tuple{1, 2}) {
		t.Fatal("lent relation wrong")
	}
	if _, err := r.Lend("S", MustSchema("x")); err == nil {
		t.Fatal("arity change accepted")
	}
}

func TestRelationFilterPreservesOrder(t *testing.T) {
	r := NewRelation("R", MustSchema("a"))
	for i := 0; i < 20; i++ {
		r.MustInsert(Value(i))
	}
	f := r.Filter("even", func(t Tuple) bool { return t[0]%2 == 0 })
	if f.Len() != 10 {
		t.Fatalf("filter Len = %d", f.Len())
	}
	for i := 0; i < 10; i++ {
		if f.Tuple(i)[0] != Value(2*i) {
			t.Fatal("filter order not preserved")
		}
	}
	// Original untouched.
	if r.Len() != 20 {
		t.Fatal("filter mutated source")
	}
}

func TestRelationProject(t *testing.T) {
	r := NewRelation("R", MustSchema("a", "b"))
	r.MustInsert(1, 10)
	r.MustInsert(1, 20)
	r.MustInsert(2, 10)
	p, err := r.Project("P", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("project Len = %d, want 2 (set semantics)", p.Len())
	}
	if p.Tuple(0)[0] != 1 || p.Tuple(1)[0] != 2 {
		t.Fatal("projection values or order wrong")
	}
	if _, err := r.Project("P", []string{"zz"}); err == nil {
		t.Fatal("projection onto unknown attribute accepted")
	}
}

func TestSemijoin(t *testing.T) {
	r := NewRelation("R", MustSchema("a", "b"))
	r.MustInsert(1, 10)
	r.MustInsert(2, 20)
	r.MustInsert(3, 30)
	s := NewRelation("S", MustSchema("b", "c"))
	s.MustInsert(10, 100)
	s.MustInsert(30, 300)
	removed := r.SemijoinWith(s)
	if removed != 1 || r.Len() != 2 {
		t.Fatalf("semijoin removed %d, len %d", removed, r.Len())
	}
	r.BuildIndex()
	if !r.Contains(Tuple{1, 10}) || !r.Contains(Tuple{3, 30}) || r.Contains(Tuple{2, 20}) {
		t.Fatal("semijoin kept wrong tuples")
	}
	// Index must be rebuilt correctly.
	if r.Position(Tuple{3, 30}) != 1 {
		t.Fatal("index stale after semijoin")
	}
}

func TestSemijoinNoSharedAttrs(t *testing.T) {
	r := NewRelation("R", MustSchema("a"))
	r.MustInsert(1)
	s := NewRelation("S", MustSchema("b"))
	s.MustInsert(7)
	if removed := r.SemijoinWith(s); removed != 0 || r.Len() != 1 {
		t.Fatal("semijoin with disjoint non-empty relation must be a no-op")
	}
	empty := NewRelation("E", MustSchema("c"))
	if removed := r.SemijoinWith(empty); removed != 1 || r.Len() != 0 {
		t.Fatal("semijoin with disjoint empty relation must empty r")
	}
}

func TestSemijoinIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := NewRelation("R", MustSchema("a", "b"))
	s := NewRelation("S", MustSchema("b"))
	for i := 0; i < 200; i++ {
		r.MustInsert(Value(rng.Intn(50)), Value(rng.Intn(20)))
	}
	for i := 0; i < 10; i++ {
		s.MustInsert(Value(rng.Intn(20)))
	}
	r.SemijoinWith(s)
	n := r.Len()
	if again := r.SemijoinWith(s); again != 0 || r.Len() != n {
		t.Fatal("semijoin not idempotent")
	}
}

// bigKeyRelation adopts n rows (i, 2i) over attributes a, b: a million
// distinct two-column keys, without a membership index.
func bigKeyRelation(t *testing.T, n int) *Relation {
	t.Helper()
	a, b := make([]Value, n), make([]Value, n)
	for i := range a {
		a[i], b[i] = Value(i), Value(2*i)
	}
	r, err := AdoptColumns("S", MustSchema("a", "b"), n, [][]Value{a, b})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSemijoinEmptySideAllocs: a semijoin with an empty side reads nothing
// and allocates nothing — an empty r against a million rows returns at once,
// and a million rows against an empty s are emptied without building a key
// set.
func TestSemijoinEmptySideAllocs(t *testing.T) {
	const n = 1 << 20
	big := bigKeyRelation(t, n)
	empty := NewRelation("E", MustSchema("b", "a", "c"))
	if allocs := testing.AllocsPerRun(10, func() {
		if empty.SemijoinWith(big) != 0 {
			t.Fatal("an empty r lost rows")
		}
	}); allocs != 0 {
		t.Fatalf("empty r ⋉ %d rows: %.0f allocations, want 0", n, allocs)
	}
	a, b := big.cols[0], big.cols[1]
	if allocs := testing.AllocsPerRun(10, func() {
		big.cols[0], big.cols[1], big.n = a, b, n // refill: the call empties it
		if removed := big.SemijoinWith(empty); removed != n || big.Len() != 0 {
			t.Fatalf("%d rows ⋉ an empty s removed %d, left %d", n, removed, big.Len())
		}
	}); allocs != 0 {
		t.Fatalf("%d rows ⋉ an empty s: %.0f allocations, want 0", n, allocs)
	}
}

// TestSemijoinHashesSmallerSide: 100 rows of r against a million of s on a
// two-column key hash r's keys and stream s through them, allocating a few
// kilobytes; hashing s's million keys would take over 16 MiB.
func TestSemijoinHashesSmallerSide(t *testing.T) {
	const n = 1 << 20
	s := bigKeyRelation(t, n)
	r := NewRelation("R", MustSchema("c", "b", "a"))
	var want []Tuple
	for i := 0; i < 100; i++ {
		a := Value(i * 9973)
		b := 2 * a
		if i%3 == 0 {
			b++ // no row of s has this key
		} else {
			want = append(want, Tuple{Value(i), b, a})
		}
		r.MustInsert(Value(i), b, a)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	removed := r.SemijoinWith(s)
	runtime.ReadMemStats(&after)
	if removed != 100-len(want) || fmt.Sprint(r.Tuples()) != fmt.Sprint(want) {
		t.Fatalf("removed %d and kept %d rows, want %d and the %d rows of s's keys in order", removed, r.Len(), 100-len(want), len(want))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("100 rows ⋉ %d rows allocated %d bytes, want < 1 MiB", n, alloc)
	}
}

func TestRelationClone(t *testing.T) {
	r := NewRelation("R", MustSchema("a"))
	r.MustInsert(1)
	c := r.Clone()
	c.MustInsert(2)
	if r.Len() != 1 || c.Len() != 2 {
		t.Fatal("clone shares tuple storage")
	}
	if !c.Contains(Tuple{1}) {
		t.Fatal("clone lost tuples")
	}
}

// TestLendCopiesOnWrite: a lent relation reads its lender's arrays until it
// must write. A semijoin that removes rows gathers the kept ones into fresh
// arrays of exactly their count, an Insert appends past the lender's rows
// into an array of its own, and the lender's columns — spare capacity
// included — never change. A frozen lender's columns are copied up front.
func TestLendCopiesOnWrite(t *testing.T) {
	base := NewRelation("R", MustSchema("a", "b"))
	for i := range Value(5) {
		base.MustInsert(i, i%2)
	}
	if cap(base.Col(0)) == base.Len() {
		t.Fatalf("fixture: no spare capacity (len %d)", base.Len())
	}
	want := base.Tuples()
	shared := func(r *Relation) bool { return &r.Col(0)[0] == &base.Col(0)[0] }

	grown, err := base.Lend("G", MustSchema("x", "y"))
	if err != nil || !shared(grown) || grown.Len() != 5 {
		t.Fatalf("Lend: %v, shares %t, %d rows", err, err == nil && shared(grown), grown.Len())
	}
	grown.MustInsert(9, 9)
	shrunk, _ := base.Lend("S", MustSchema("x", "y"))
	odd := NewRelation("O", MustSchema("y"))
	odd.MustInsert(1)
	if removed := shrunk.SemijoinWith(odd); removed != 3 {
		t.Fatalf("semijoin removed %d rows, want 3", removed)
	}
	if shared(shrunk) || cap(shrunk.Col(0)) != 2 || cap(shrunk.Col(1)) != 2 {
		t.Fatalf("shrunk columns: shared %t, caps %d and %d, want fresh arrays of 2", shared(shrunk), cap(shrunk.Col(0)), cap(shrunk.Col(1)))
	}
	spare := base.Col(0)[:cap(base.Col(0))]
	for i := range want {
		if !base.Tuple(i).Equal(want[i]) {
			t.Fatalf("lender's row %d is %v, was %v", i, base.Tuple(i), want[i])
		}
	}
	for i := base.Len(); i < len(spare); i++ {
		if spare[i] != 0 {
			t.Fatalf("an append to a lent relation wrote %d into the lender's spare capacity at %d", spare[i], i)
		}
	}
	shrunk.BuildIndex()
	if grown.Len() != 6 || !grown.Contains(Tuple{9, 9}) || !shrunk.Contains(Tuple{1, 1}) || shrunk.Contains(Tuple{0, 0}) {
		t.Fatalf("lent relations hold the wrong rows: %v, %v", grown.Tuples(), shrunk.Tuples())
	}

	frozen, err := FromColumns("F", base.Schema(), [][]Value{base.Col(0), base.Col(1)})
	if err != nil {
		t.Fatal(err)
	}
	if copied, _ := frozen.Lend("C", MustSchema("x", "y")); &copied.Col(0)[0] == &frozen.Col(0)[0] {
		t.Fatal("a frozen relation lent its snapshot-backed columns")
	}
}

// TestLendSharesIndex: a maintained membership index is lent with the
// columns, and the table is never written once lent. An Insert into a
// borrower or into the lender copies it first, and the other side keeps
// reading the table it had; a semijoin that shrinks a borrower lets the
// table go and builds its own. A frozen lender lends no index.
func TestLendSharesIndex(t *testing.T) {
	base := NewRelation("R", MustSchema("a", "b"))
	for i := range Value(40) {
		base.MustInsert(i, i%3)
	}
	table := base.index
	slots, n := slices.Clone(table.slots), table.n
	untouched := func(when string) {
		t.Helper()
		if table.n != n || !slices.Equal(table.slots, slots) {
			t.Fatalf("%s: the lent table was written (%d ids, %d before)", when, table.n, n)
		}
	}

	a, _ := base.Lend("A", MustSchema("x", "y"))
	b, _ := base.Lend("B", MustSchema("x", "y"))
	if !a.SharesIndexWith(base) || !b.SharesIndexWith(base) || !table.lent.Load() {
		t.Fatal("Lend did not share the base's maintained index")
	}
	if a.BuildIndex(); !a.SharesIndexWith(base) {
		t.Fatal("BuildIndex replaced a shared index")
	}
	if added, _ := a.Insert(Tuple{100, 0}); !added || a.SharesIndexWith(base) || !a.Contains(Tuple{100, 0}) {
		t.Fatalf("Insert into a borrower: added %t, still shares %t", added, a.SharesIndexWith(base))
	}
	untouched("after an Insert into a borrower")
	if added, _ := base.Insert(Tuple{3, 0}); added {
		t.Fatal("a duplicate was inserted into the lender")
	}
	if added, _ := base.Insert(Tuple{200, 0}); !added || base.SharesIndexWith(b) || !base.Contains(Tuple{200, 0}) {
		t.Fatalf("Insert into the lender: added %t, still shares %t", added, base.SharesIndexWith(b))
	}
	untouched("after an Insert into the lender")
	if b.Contains(Tuple{200, 0}) || b.Contains(Tuple{100, 0}) || b.Position(Tuple{39, 0}) != 39 || b.Len() != 40 {
		t.Fatal("a borrower sees another relation's Insert")
	}

	c, _ := base.Lend("C", MustSchema("x", "y"))
	zero := NewRelation("Z", MustSchema("y"))
	zero.MustInsert(0)
	if c.SemijoinWith(zero); c.Indexed() || c.SharesIndexWith(base) {
		t.Fatal("a shrunk borrower kept the lent index")
	}
	if c.BuildIndex(); !c.Contains(Tuple{3, 0}) || c.Contains(Tuple{1, 1}) || c.SharesIndexWith(base) {
		t.Fatal("a shrunk borrower's own index is wrong")
	}
	untouched("after a semijoin shrank a borrower")

	frozen, err := FromColumns("F", base.Schema(), [][]Value{base.Col(0), base.Col(1)})
	if err != nil {
		t.Fatal(err)
	}
	frozen.BuildIndex()
	if f, _ := frozen.Lend("G", MustSchema("x", "y")); f.Indexed() {
		t.Fatal("a frozen relation lent an index")
	}
}

func TestRelationSortTuples(t *testing.T) {
	r := NewRelation("R", MustSchema("a", "b"))
	r.MustInsert(2, 1)
	r.MustInsert(1, 9)
	r.MustInsert(1, 3)
	r.SortTuples()
	r.BuildIndex()
	want := []Tuple{{1, 3}, {1, 9}, {2, 1}}
	for i, w := range want {
		if !r.Tuple(i).Equal(w) {
			t.Fatalf("sorted order wrong at %d: %v", i, r.Tuple(i))
		}
		if r.Position(w) != i {
			t.Fatal("index stale after sort")
		}
	}
}

func TestDatabaseBasics(t *testing.T) {
	d := NewDatabase()
	r := d.MustCreate("R", "a", "b")
	r.MustInsert(1, 2)
	s := d.MustCreate("S", "b")
	s.MustInsert(2)

	got, err := d.Relation("R")
	if err != nil || got != r {
		t.Fatal("Relation lookup failed")
	}
	if _, err := d.Relation("missing"); err == nil {
		t.Fatal("missing relation not reported")
	}
	if !d.Has("S") || d.Has("T") {
		t.Fatal("Has wrong")
	}
	names := d.Names()
	if len(names) != 2 || names[0] != "R" || names[1] != "S" {
		t.Fatalf("Names = %v", names)
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d", d.Size())
	}
	if _, err := d.Create("bad", "a", "a"); err == nil {
		t.Fatal("bad schema accepted")
	}
	v := d.Intern("x")
	if d.Dict().String(v) != "x" {
		t.Fatal("database dict broken")
	}
}

// TestMembershipIndexLifecycle pins when the membership index is present:
// NewRelation + Insert maintain it; AdoptColumns, FromColumns (snapshot
// restore, so that opening a snapshot hashes nothing), a semijoin that
// removes a row and SortTuples leave it absent; BuildIndex, Insert and Clone
// build an absent one — Clone into its copy only — and a probe of an absent
// index panics instead of building it.
func TestMembershipIndexLifecycle(t *testing.T) {
	panics := func(what string, probe func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on an absent membership index did not panic", what)
			}
		}()
		probe()
	}
	absent := func(r *Relation, when string) {
		t.Helper()
		if r.Indexed() {
			t.Fatalf("%s: membership index present", when)
		}
		panics(when+": Position", func() { r.Position(Tuple{1, 10}) })
		panics(when+": Contains", func() { r.Contains(Tuple{1, 10}) })
		panics(when+": PositionProjected", func() { r.PositionProjected(Tuple{10, 1}, []int{1, 0}) })
	}

	r := NewRelation("R", MustSchema("a", "b"))
	r.MustInsert(1, 10)
	r.MustInsert(2, 20)
	r.MustInsert(3, 30)
	if !r.Indexed() {
		t.Fatal("NewRelation + Insert must maintain the index")
	}
	s := NewRelation("S", MustSchema("b"))
	s.MustInsert(10)
	s.MustInsert(30)
	r.SemijoinWith(s)
	absent(r, "after a semijoin that removed a row")
	r.BuildIndex()
	if !r.Indexed() || r.Position(Tuple{3, 30}) != 1 || r.Contains(Tuple{2, 20}) {
		t.Fatal("BuildIndex after a semijoin produced a wrong index")
	}
	if added, err := r.Insert(Tuple{3, 30}); err != nil || added {
		t.Fatalf("Insert after BuildIndex lost set semantics: added=%v err=%v", added, err)
	}
	r.SortTuples()
	absent(r, "after SortTuples")
	if added, err := r.Insert(Tuple{1, 10}); err != nil || added || !r.Indexed() {
		t.Fatalf("Insert after SortTuples: added=%v err=%v indexed=%v, want the index built and the duplicate refused", added, err, r.Indexed())
	}
	if r.Position(Tuple{1, 10}) != 0 || r.Position(Tuple{3, 30}) != 1 {
		t.Fatal("the index Insert built after SortTuples is wrong")
	}

	cols := [][]Value{{7, 8, 9}, {1, 1 << 40, -1}, {0, 0, 0}}
	for _, frozen := range []bool{false, true} {
		var c *Relation
		var err error
		if frozen {
			c, err = FromColumns("C", MustSchema("x", "y", "z"), cols)
		} else {
			c, err = AdoptColumns("C", MustSchema("x", "y", "z"), 3, cols)
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.Indexed() {
			t.Fatalf("frozen=%v: index built at construction", frozen)
		}
		panics("Position", func() { c.Position(Tuple{8, 1 << 40, 0}) })
		clone := c.Clone()
		if c.Indexed() || !clone.Indexed() || clone.Position(Tuple{8, 1 << 40, 0}) != 1 {
			t.Fatalf("frozen=%v: Clone must build its copy's index and leave the receiver's absent", frozen)
		}
		c.BuildIndex() // legal on a frozen relation too
		if !c.Indexed() || c.Position(Tuple{8, 1 << 40, 0}) != 1 || c.Contains(Tuple{8, 1, 0}) {
			t.Fatalf("frozen=%v: BuildIndex produced a wrong index", frozen)
		}
		if _, err := c.Insert(Tuple{1, 2, 3}); (err != nil) != frozen {
			t.Fatalf("frozen=%v: Insert error = %v", frozen, err)
		}
	}
	adopted, err := AdoptColumns("D", MustSchema("x"), 2, [][]Value{{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if added, err := adopted.Insert(Tuple{5}); err != nil || added || !adopted.Indexed() {
		t.Fatalf("Insert into an adopted relation: added=%v err=%v indexed=%v", added, err, adopted.Indexed())
	}
}

func TestAdoptColumnsValidation(t *testing.T) {
	if _, err := AdoptColumns("C", MustSchema("x", "y"), 2, [][]Value{{1, 2}}); err == nil {
		t.Fatal("column count != arity accepted")
	}
	if _, err := AdoptColumns("C", MustSchema("x", "y"), 2, [][]Value{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged columns accepted")
	}
	if _, err := AdoptColumns("C", Schema{}, 2, nil); err == nil {
		t.Fatal("two rows of arity 0 accepted")
	}
	unit, err := AdoptColumns("C", Schema{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unit.BuildIndex(); unit.Len() != 1 || !unit.Contains(Tuple{}) {
		t.Fatalf("arity-0 relation holding the empty tuple: %v", unit)
	}
}

// TestProjectOntoNothing: a projection onto no attributes keeps the empty
// tuple exactly when r is non-empty.
func TestProjectOntoNothing(t *testing.T) {
	r := NewRelation("R", MustSchema("a"))
	for want := 0; want <= 1; want++ {
		p, err := r.Project("P", nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.BuildIndex(); p.Len() != want || p.Contains(Tuple{}) != (want == 1) {
			t.Fatalf("projection of %d rows onto nothing: %v", r.Len(), p)
		}
		r.MustInsert(1)
		r.MustInsert(2)
	}
}

// TestSortRowsIsStableGather: SortRows moves every group's rows together in
// group order and keeps their order within a group; it leaves its input
// relation as it was (a frozen one's columns alias a read-only mapping); the
// reordered relation's membership index (remapped, when the input's is
// present; absent otherwise, and then built) and the grouping's key lookup
// answer for the
// new positions; and a relation in group order does not move. The key
// values are 0 … 6, which GroupBy direct-addresses, and the same times 2^40,
// which it hashes.
func TestSortRowsIsStableGather(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 120; iter++ {
		scale := Value(1)
		if iter >= 60 {
			scale = 1 << 40
		}
		r := NewRelation("R", MustSchema("a", "b"))
		for i := 0; i < 1+rng.Intn(300); i++ {
			r.Insert(Tuple{Value(rng.Intn(7)) * scale, Value(rng.Intn(40))})
		}
		switch iter % 3 {
		case 1:
			r = r.Filter("R", func(Tuple) bool { return true })
			r.index = nil // an absent index must stay absent
		case 2:
			fr, err := FromColumns("R", r.Schema(), [][]Value{r.Col(0), r.Col(1)})
			if err != nil {
				t.Fatal(err)
			}
			r = fr
		}
		before := r.Tuples()
		g := r.GroupBy([]int{0})
		oldGroupOf := append([]uint32(nil), g.GroupOf...)
		sorted, off, slotOf := g.SortRows(r)

		var want []Tuple
		for k := 0; k < g.NumGroups(); k++ {
			if int(off[k]) != len(want) {
				t.Fatalf("group %d starts at %d, want %d", k, off[k], len(want))
			}
			for i, gi := range oldGroupOf {
				if gi == uint32(k) {
					want = append(want, before[i])
					if slotOf != nil && int(slotOf[i]) != len(want)-1 {
						t.Fatalf("slotOf[%d] = %d, want %d", i, slotOf[i], len(want)-1)
					}
				}
			}
		}
		if got := sorted.Tuples(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("sorted rows %v, want %v", got, want)
		}
		if fmt.Sprint(r.Tuples()) != fmt.Sprint(before) {
			t.Fatal("SortRows modified its input relation")
		}
		if sorted.Indexed() != (iter%3 == 0) {
			t.Fatalf("sorted relation indexed %t, its input %t", sorted.Indexed(), iter%3 == 0)
		}
		sorted.BuildIndex()
		for s, tu := range want {
			if p := sorted.Position(tu); p != s {
				t.Fatalf("sorted.Position(%v) = %d, want %d", tu, p, s)
			}
		}
		for s, k := range g.LookupRows(sorted, []int{0}) {
			if k != int32(g.GroupOf[s]) || s > 0 && g.GroupOf[s] < g.GroupOf[s-1] {
				t.Fatalf("after SortRows: row %d in group %d, LookupRows %d", s, g.GroupOf[s], k)
			}
		}
		if again, _, moved := g.SortRows(sorted); again != sorted || moved != nil {
			t.Fatal("SortRows of a relation in group order moved rows")
		}
	}
}
