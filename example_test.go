package renum_test

import (
	"context"
	"fmt"
	"math/rand"

	"repro"
)

// ExampleHandle_Inverter shows the core Theorem 4.3 facilities on a tiny
// database: constant-time counting, logarithmic random access and the
// constant-time inverted access.
func ExampleHandle_Inverter() {
	db := renum.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	r.MustInsert(1, 10)
	r.MustInsert(2, 10)
	s.MustInsert(10, 100)
	s.MustInsert(10, 200)

	q := renum.MustCQ("Q", []string{"a", "b", "c"},
		renum.NewAtom("R", renum.V("a"), renum.V("b")),
		renum.NewAtom("S", renum.V("b"), renum.V("c")))
	h, err := renum.Open(db, q)
	if err != nil {
		panic(err)
	}
	fmt.Println("count:", h.Count())
	t, _ := h.Access(2)
	fmt.Println("third answer:", t)
	inv, err := h.Inverter()
	if err != nil {
		panic(err)
	}
	j, _ := inv.InvertedAccess(t)
	fmt.Println("its position:", j)
	// Output:
	// count: 4
	// third answer: [2 10 100]
	// its position: 2
}

// ExampleHandle_Permute demonstrates REnum(CQ): a uniformly random
// permutation of the answers without repetitions.
func ExampleHandle_Permute() {
	db := renum.NewDatabase()
	r := db.MustCreate("R", "a")
	for i := 1; i <= 4; i++ {
		r.MustInsert(renum.Value(i))
	}
	q := renum.MustCQ("Q", []string{"a"}, renum.NewAtom("R", renum.V("a")))
	h, _ := renum.Open(db, q)
	perm, _ := h.Permute(rand.New(rand.NewSource(7)))
	seen := 0
	for {
		if _, ok := perm.Next(); !ok {
			break
		}
		seen++
	}
	fmt.Println("answers emitted exactly once each:", seen)
	// Output:
	// answers emitted exactly once each: 4
}

// ExampleNewRandomOrderUnion shows Algorithm 5 on a union of two CQs whose
// answer sets overlap: every element of the union appears exactly once.
func ExampleNewRandomOrderUnion() {
	db := renum.NewDatabase()
	r := db.MustCreate("R", "x")
	s := db.MustCreate("S", "x")
	r.MustInsert(1)
	r.MustInsert(2)
	s.MustInsert(2)
	s.MustInsert(3)
	u := renum.MustUCQ("U",
		renum.MustCQ("q1", []string{"x"}, renum.NewAtom("R", renum.V("x"))),
		renum.MustCQ("q2", []string{"x"}, renum.NewAtom("S", renum.V("x"))))
	e, _ := renum.NewRandomOrderUnion(db, u, rand.New(rand.NewSource(1)))
	n := 0
	for {
		if _, ok := e.Next(); !ok {
			break
		}
		n++
	}
	fmt.Println("union size:", n)
	// Output:
	// union size: 3
}

// ExampleIsFreeConnex classifies the two textbook queries: the full chain
// join (tractable) and its projection to the endpoints (the matrix
// multiplication pattern — provably not tractable for these tasks).
func ExampleIsFreeConnex() {
	full := renum.MustCQ("full", []string{"x", "y", "z"},
		renum.NewAtom("R", renum.V("x"), renum.V("y")),
		renum.NewAtom("S", renum.V("y"), renum.V("z")))
	proj := renum.MustCQ("proj", []string{"x", "z"},
		renum.NewAtom("R", renum.V("x"), renum.V("y")),
		renum.NewAtom("S", renum.V("y"), renum.V("z")))
	fmt.Println(renum.IsFreeConnex(full), renum.IsFreeConnex(proj))
	// Output:
	// true false
}

// ExampleOpen shows the one-constructor API: Open takes a CQ or a UCQ plus
// functional options and returns a capability-based Handle exposing the
// shared probe surface directly.
func ExampleOpen() {
	db := renum.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	r.MustInsert(1, 10)
	r.MustInsert(2, 10)
	s.MustInsert(10, 100)
	s.MustInsert(10, 200)

	q := renum.MustCQ("Q", []string{"a", "b", "c"},
		renum.NewAtom("R", renum.V("a"), renum.V("b")),
		renum.NewAtom("S", renum.V("b"), renum.V("c")))
	h, err := renum.Open(db, q)
	if err != nil {
		panic(err)
	}
	fmt.Println("kind:", h.Kind())
	fmt.Println("count:", h.Count())
	t, _ := h.Access(2)
	fmt.Println("third answer:", t)
	page, _ := h.Page(1, 2)
	fmt.Println("page [1,3):", page)
	// Output:
	// kind: cq
	// count: 4
	// third answer: [2 10 100]
	// page [1,3): [[1 10 200] [2 10 100]]
}

// ExampleHandle_Capabilities demonstrates capability discovery: optional
// facilities are found on the handle — and missing ones fail with
// ErrUnsupported — instead of being guessed from a concrete type.
func ExampleHandle_Capabilities() {
	db := renum.NewDatabase()
	r := db.MustCreate("R", "x")
	s := db.MustCreate("S", "x")
	r.MustInsert(1)
	r.MustInsert(2)
	s.MustInsert(2)
	s.MustInsert(3)
	u := renum.MustUCQ("U",
		renum.MustCQ("q1", []string{"x"}, renum.NewAtom("R", renum.V("x"))),
		renum.MustCQ("q2", []string{"x"}, renum.NewAtom("S", renum.V("x"))))

	h, err := renum.Open(db, u)
	if err != nil {
		panic(err)
	}
	fmt.Println("capabilities:", h.Capabilities())
	fmt.Println("can update:", h.Has(renum.CapUpdate))
	if _, err := h.Inverter(); renum.IsUnsupported(err) {
		fmt.Println("inverted access: unsupported on unions")
	}
	smp, _ := h.Sampler()
	fmt.Println("distinct sampling:", smp.Distinct())
	// Output:
	// capabilities: [enumerate contains sample snapshot]
	// can update: false
	// inverted access: unsupported on unions
	// distinct sampling: true
}

// ExampleHandle_All shows iterator-native enumeration: All yields the
// answers in the fixed enumeration order as an iter.Seq2, and Shuffled
// yields a uniformly random permutation.
func ExampleHandle_All() {
	db := renum.NewDatabase()
	r := db.MustCreate("R", "a")
	for i := 1; i <= 4; i++ {
		r.MustInsert(renum.Value(i))
	}
	q := renum.MustCQ("Q", []string{"a"}, renum.NewAtom("R", renum.V("a")))
	h, err := renum.Open(db, q)
	if err != nil {
		panic(err)
	}
	for t, err := range h.All() {
		if err != nil {
			panic(err)
		}
		fmt.Println(t)
	}
	shuffled := 0
	for _, err := range h.Shuffled(rand.New(rand.NewSource(7))) {
		if err != nil {
			panic(err)
		}
		shuffled++
	}
	fmt.Println("shuffled answers, each exactly once:", shuffled)
	// Output:
	// [1]
	// [2]
	// [3]
	// [4]
	// shuffled answers, each exactly once: 4
}

// ExampleHandle_AccessBatchContext shows the context-aware batch probes: a
// cancelled request stops a large batch between chunks.
func ExampleHandle_AccessBatchContext() {
	db := renum.NewDatabase()
	r := db.MustCreate("R", "a")
	for i := 0; i < 100; i++ {
		r.MustInsert(renum.Value(i))
	}
	q := renum.MustCQ("Q", []string{"a"}, renum.NewAtom("R", renum.V("a")))
	h, err := renum.Open(db, q)
	if err != nil {
		panic(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	if _, err := h.AccessBatchContext(ctx, []int64{0, 1, 2}); err != nil {
		fmt.Println("batch:", err)
	}
	ts, _ := h.AccessBatchContext(context.Background(), []int64{0, 99})
	fmt.Println("live batch:", ts)
	// Output:
	// batch: context canceled
	// live batch: [[0] [99]]
}
