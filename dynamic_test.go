package renum

import (
	"errors"
	"math/rand"
	"testing"
)

func TestPublicDynamicAccess(t *testing.T) {
	db := NewDatabase()
	db.MustCreate("R", "r1", "r2")
	db.MustCreate("S", "s1", "s2")
	q := MustCQ("q", []string{"a", "b", "c"},
		NewAtom("R", V("a"), V("b")),
		NewAtom("S", V("b"), V("c")))
	dyn := mustOpen(t, db, q, WithDynamic())
	upd, err := dyn.Updater()
	if err != nil {
		t.Fatal(err)
	}
	inv, in, smp := mustInverter(t, dyn), mustContainer(t, dyn), mustSampler(t, dyn)
	if dyn.Count() != 0 {
		t.Fatal("fresh count")
	}
	if _, err := upd.Insert("R", Tuple{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := upd.Insert("S", Tuple{2, 3}); err != nil {
		t.Fatal(err)
	}
	if dyn.Count() != 1 {
		t.Fatalf("Count = %d", dyn.Count())
	}
	a, err := dyn.Access(0)
	if err != nil || !a.Equal(Tuple{1, 2, 3}) {
		t.Fatalf("Access = %v, %v", a, err)
	}
	if j, ok := inv.InvertedAccess(a); !ok || j != 0 {
		t.Fatal("inverted access")
	}
	if !in.Contains(a) {
		t.Fatal("Contains")
	}
	if s, err := smp.SampleN(1, rand.New(rand.NewSource(1))); err != nil || len(s) != 1 || !s[0].Equal(a) {
		t.Fatal("Sample")
	}
	if changed, _ := upd.Delete("R", Tuple{1, 2}); !changed {
		t.Fatal("delete")
	}
	if dyn.Count() != 0 || in.Contains(a) {
		t.Fatal("state after delete")
	}
	if h := dyn.Head(); len(h) != 3 || h[2] != "c" {
		t.Fatalf("Head = %v", h)
	}
	// Non-full queries are rejected with the sentinel error.
	proj := MustCQ("p", []string{"a"}, NewAtom("R", V("a"), V("b")))
	if _, err := Open(db, proj, WithDynamic()); !errors.Is(err, ErrNotFull) {
		t.Fatalf("err = %v", err)
	}
}

// TestDynamicMatchesStaticAfterUpdates: after a batch of updates, a fresh
// static index over the same data must agree with the maintained dynamic one
// on count and answer set.
func TestDynamicMatchesStaticAfterUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := MustCQ("q", []string{"a", "b", "c"},
		NewAtom("R", V("a"), V("b")),
		NewAtom("S", V("b"), V("c")))

	db := NewDatabase()
	db.MustCreate("R", "r1", "r2")
	db.MustCreate("S", "s1", "s2")
	dyn := mustOpen(t, db, q, WithDynamic())
	upd, err := dyn.Updater()
	if err != nil {
		t.Fatal(err)
	}

	// Mirror database receiving the same net content.
	type fact struct {
		rel  string
		t    Tuple
		live bool
	}
	facts := map[string]*fact{}
	key := func(rel string, t Tuple) string { return rel + "|" + t.Key() }
	for step := 0; step < 400; step++ {
		rel := []string{"R", "S"}[rng.Intn(2)]
		tu := Tuple{Value(rng.Intn(6)), Value(rng.Intn(6))}
		if rng.Intn(4) > 0 {
			upd.Insert(rel, tu)
			facts[key(rel, tu)] = &fact{rel, tu, true}
		} else {
			upd.Delete(rel, tu)
			if f, ok := facts[key(rel, tu)]; ok {
				f.live = false
			}
		}
	}
	mirror := NewDatabase()
	mr := mirror.MustCreate("R", "r1", "r2")
	ms := mirror.MustCreate("S", "s1", "s2")
	for _, f := range facts {
		if !f.live {
			continue
		}
		switch f.rel {
		case "R":
			if _, err := mr.Insert(f.t); err != nil {
				t.Fatal(err)
			}
		case "S":
			if _, err := ms.Insert(f.t); err != nil {
				t.Fatal(err)
			}
		}
	}
	static := asParsed(t, mirror, q)
	in := mustContainer(t, static)
	if static.Count() != dyn.Count() {
		t.Fatalf("static %d vs dynamic %d", static.Count(), dyn.Count())
	}
	for j := int64(0); j < dyn.Count(); j++ {
		a, err := dyn.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if !in.Contains(a) {
			t.Fatalf("dynamic answer %v not in static index", a)
		}
	}
}
