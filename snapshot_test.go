package renum

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/snapshot"
)

// snapFixture builds a database with dictionary-interned (string) values —
// so the dict round-trips too — plus a CQ with a projection and a constant.
func snapFixture(t testing.TB) (*Database, *CQ, *UCQ) {
	t.Helper()
	db := NewDatabase()
	r := db.MustCreate("R", "a", "b")
	s := db.MustCreate("S", "b", "c")
	rng := rand.New(rand.NewSource(11))
	words := []string{"red", "green", "blue", "teal", "plum", "rust", "jade", "gold"}
	for i := 0; i < 150; i++ {
		r.MustInsert(db.Intern(words[rng.Intn(len(words))]), db.Intern(words[rng.Intn(4)]))
		s.MustInsert(db.Intern(words[rng.Intn(4)]), db.Intern(words[rng.Intn(len(words))]))
	}
	// Free-connex projection: c is existential, {a, b} is covered by R.
	q := MustCQ("q", []string{"a", "b"},
		NewAtom("R", V("a"), V("b")),
		NewAtom("S", V("b"), V("c")))
	u := MustUCQ("U",
		MustCQ("u1", []string{"x", "y"}, NewAtom("R", V("x"), V("y"))),
		MustCQ("u2", []string{"x", "y"}, NewAtom("S", V("x"), V("y"))))
	return db, q, u
}

// saveToTemp writes a catalog with both entries and returns its path.
func saveToTemp(t *testing.T, db *Database, gen uint64, entries []CatalogEntry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cat.snap")
	if err := SaveSnapshot(path, db, gen, entries); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertProbeEqual drives the whole shared probe surface on both handles
// and fails on the first divergence: Count, Head, every Access position,
// the full All() enumeration, AccessBatch over random positions, Page, and
// seeded Shuffled/Sampler draws.
func assertProbeEqual(t *testing.T, built, restored *Handle) {
	t.Helper()
	if built.Count() != restored.Count() {
		t.Fatalf("Count: built %d, restored %d", built.Count(), restored.Count())
	}
	bh, rh := built.Head(), restored.Head()
	if len(bh) != len(rh) {
		t.Fatalf("Head: %v vs %v", bh, rh)
	}
	for i := range bh {
		if bh[i] != rh[i] {
			t.Fatalf("Head[%d]: %q vs %q", i, bh[i], rh[i])
		}
	}
	n := built.Count()
	for j := int64(0); j < n; j++ {
		bt, err := built.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := restored.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if !bt.Equal(rt) {
			t.Fatalf("Access(%d): built %v, restored %v", j, bt, rt)
		}
	}
	var bAll, rAll []Tuple
	for tu, err := range built.All() {
		if err != nil {
			t.Fatal(err)
		}
		bAll = append(bAll, tu)
	}
	for tu, err := range restored.All() {
		if err != nil {
			t.Fatal(err)
		}
		rAll = append(rAll, tu)
	}
	if len(bAll) != len(rAll) {
		t.Fatalf("All(): built %d answers, restored %d", len(bAll), len(rAll))
	}
	for i := range bAll {
		if !bAll[i].Equal(rAll[i]) {
			t.Fatalf("All()[%d]: built %v, restored %v", i, bAll[i], rAll[i])
		}
	}
	rng := rand.New(rand.NewSource(3))
	js := make([]int64, 300)
	for i := range js {
		js[i] = rng.Int63n(n)
	}
	bb, err := built.AccessBatch(js)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := restored.AccessBatch(js)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bb {
		if !bb[i].Equal(rb[i]) {
			t.Fatalf("AccessBatch[%d]: %v vs %v", i, bb[i], rb[i])
		}
	}
	bp, err := built.Page(n/3, 10)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := restored.Page(n/3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp) != len(rp) {
		t.Fatalf("Page: %d vs %d rows", len(bp), len(rp))
	}
	for i := range bp {
		if !bp[i].Equal(rp[i]) {
			t.Fatalf("Page[%d]: %v vs %v", i, bp[i], rp[i])
		}
	}
	bi, ri := 0, 0
	for tu, err := range built.Shuffled(rand.New(rand.NewSource(9))) {
		if err != nil {
			t.Fatal(err)
		}
		_ = tu
		bi++
	}
	for tu, err := range restored.Shuffled(rand.New(rand.NewSource(9))) {
		if err != nil {
			t.Fatal(err)
		}
		_ = tu
		ri++
	}
	if bi != ri {
		t.Fatalf("Shuffled drained %d vs %d", bi, ri)
	}
	bs, err := built.Sampler()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := restored.Sampler()
	if err != nil {
		t.Fatal(err)
	}
	bts, err := bs.SampleN(25, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	rts, err := rs.SampleN(25, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(bts) != len(rts) {
		t.Fatalf("SampleN: %d vs %d", len(bts), len(rts))
	}
	for i := range bts {
		if !bts[i].Equal(rts[i]) {
			t.Fatalf("SampleN[%d]: %v vs %v", i, bts[i], rts[i])
		}
	}
}

func TestSnapshotRoundTripCQ(t *testing.T) {
	db, q, _ := snapFixture(t)
	built := mustOpen(t, db, q)
	path := saveToTemp(t, db, 7, []CatalogEntry{{Name: "q", Q: q, H: built}})

	cat, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if cat.Generation() != 7 {
		t.Fatalf("Generation = %d, want 7", cat.Generation())
	}
	entries := cat.Entries()
	if len(entries) != 1 || entries[0].Name != "q" {
		t.Fatalf("entries = %+v", entries)
	}
	restored := entries[0].H
	if restored.Kind() != KindCQ {
		t.Fatalf("restored kind = %s", restored.Kind())
	}
	assertProbeEqual(t, built, restored)

	// The caller-owned-rows batch, which the daemon serves /batch from: 64
	// positions in random order (the fixture has fewer answers, so some
	// repeat) fill equal rows on both sides.
	js := make([]int64, 64)
	for i, rng := 0, rand.New(rand.NewSource(5)); i < len(js); i++ {
		js[i] = rng.Int63n(built.Count())
	}
	var rows [2][]Tuple
	for side, h := range []*Handle{built, restored} {
		rows[side] = make([]Tuple, len(js))
		for i := range js {
			rows[side][i] = make(Tuple, len(h.Head()))
		}
		if err := h.AccessBatchInto(js, rows[side]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range js {
		if !rows[0][i].Equal(rows[1][i]) {
			t.Fatalf("AccessBatchInto row %d (j=%d): built %v, restored %v", i, js[i], rows[0][i], rows[1][i])
		}
	}

	// Inverted access + membership survive the restore (and exercise the
	// lazy duplicate-index path of snapshot-backed relations).
	inv, err := restored.Inverter()
	if err != nil {
		t.Fatal(err)
	}
	for j := int64(0); j < built.Count(); j += 7 {
		tu, err := built.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := inv.InvertedAccess(tu)
		if !ok || got != j {
			t.Fatalf("InvertedAccess(Access(%d)) = (%d, %v)", j, got, ok)
		}
	}
	c, err := restored.Container()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(mustAccess(t, built, 0)) {
		t.Fatal("Contains(first answer) = false")
	}

	// Explain is the one capability a restored CQ honestly drops.
	if restored.Has(CapExplain) {
		t.Fatal("restored handle claims CapExplain")
	}
	if _, err := restored.Explain(); !IsUnsupported(err) {
		t.Fatalf("Explain err = %v, want ErrUnsupported", err)
	}
	if !restored.Has(CapSnapshot) {
		t.Fatal("restored handle lost CapSnapshot")
	}

	// The restored dictionary renders the same strings.
	bt := mustAccess(t, built, 0)
	for i, v := range mustAccess(t, cat.Entries()[0].H, 0) {
		if db.Dict().String(bt[i]) != cat.DB().Dict().String(v) {
			t.Fatalf("rendering diverged at column %d", i)
		}
	}
	// And supports lookups (lazy reverse-map hydration).
	if _, ok := cat.DB().Dict().Lookup("red"); !ok {
		t.Fatal("restored dict cannot look up an interned string")
	}
}

// TestRestoredHandleIsBuiltBackend: a snapshot-restored CQ entry is served by
// the very backend type Open builds — there is no second type to forget a
// fast path on — so the handle from Open, the handle from a snapshot and the
// backend a SliceView of the restored handle wraps all resolve
// AccessBatchInto through batchFiller, the grouped probe. (The restored
// entry used to be a cqSnapBackend, which forwarded everything except that.)
// What a restore cannot do is unchanged: no CapExplain, same error.
func TestRestoredHandleIsBuiltBackend(t *testing.T) {
	db, q, _ := snapFixture(t)
	built := mustOpen(t, db, q)
	var img bytes.Buffer
	if err := WriteSnapshot(&img, db, 1, []CatalogEntry{{Name: "q", Q: q, H: built}}); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenSnapshotBytes(img.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	restored := cat.Entries()[0].H
	slice, err := SliceView(restored, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	window, ok := slice.b.(sliceInvBackend)
	if !ok {
		t.Fatalf("SliceView of a restored CQ is a %T, want the inverting slice", slice.b)
	}
	for name, b := range map[string]backend{"built": built.b, "restored": restored.b, "slice.of": window.of} {
		if _, ok := b.(cqBackend); !ok {
			t.Errorf("%s backend is a %T, want cqBackend", name, b)
		}
		if _, ok := b.(batchFiller); !ok {
			t.Errorf("%s backend (%T) does not fill batches itself: AccessBatchInto falls back to single probes", name, b)
		}
	}
	if _, ok := slice.b.(batchFiller); !ok {
		t.Errorf("the slice (%T) does not hand its batches to the backend it wraps", slice.b)
	}

	for _, c := range restored.Capabilities() {
		if c == CapExplain {
			t.Fatalf("restored capabilities %v include explain", restored.Capabilities())
		}
	}
	const want = "explain: renum: operation unsupported by this handle (kind cq)"
	if _, err := restored.Explain(); err == nil || err.Error() != want || !IsUnsupported(err) {
		t.Fatalf("restored Explain err = %v, want %q", err, want)
	}
	if !built.Has(CapExplain) {
		t.Fatal("the built handle lost CapExplain")
	}
}

// TestSnapshotRestoreAllocatesATenthOfCSVBoot pins what a snapshot saves a
// restart, in a unit that does not depend on the host: on
// BenchmarkColdStart's instance, OpenSnapshotBytes makes at most a tenth of
// the heap allocations of the CSV boot plus Open it replaces. A restore
// that rebuilt anything — reduction, weights, buckets — would not fit.
func TestSnapshotRestoreAllocatesATenthOfCSVBoot(t *testing.T) {
	cs := newColdStart(t)
	img, err := os.ReadFile(cs.snap)
	if err != nil {
		t.Fatal(err)
	}
	boot := testing.AllocsPerRun(3, func() { cs.bootCSV(t) })
	restore := testing.AllocsPerRun(3, func() {
		cat, err := OpenSnapshotBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		if got := cat.Entries()[0].H.Count(); got != cs.count {
			t.Fatalf("restored count %d, want %d", got, cs.count)
		}
		cat.Close()
	})
	t.Logf("CSV boot + Open: %.0f allocations, OpenSnapshotBytes: %.0f", boot, restore)
	if 10*restore > boot {
		t.Fatalf("OpenSnapshotBytes makes %.0f allocations, more than a tenth of the CSV boot's %.0f", restore, boot)
	}
}

func mustAccess(t *testing.T, h *Handle, j int64) Tuple {
	t.Helper()
	tu, err := h.Access(j)
	if err != nil {
		t.Fatal(err)
	}
	return tu
}

func TestSnapshotRoundTripUCQ(t *testing.T) {
	db, _, u := snapFixture(t)
	built := mustOpen(t, db, u)
	path := saveToTemp(t, db, 1, []CatalogEntry{{Name: "U", Q: u, H: built}})

	cat, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	restored := cat.Entries()[0].H
	if restored.Kind() != KindUCQ {
		t.Fatalf("restored kind = %s", restored.Kind())
	}
	assertProbeEqual(t, built, restored)

	// Save again FROM the restored handle (snapshot of a snapshot) and
	// reopen: still byte-identical on the probe surface.
	again := filepath.Join(t.TempDir(), "again.snap")
	if err := SaveSnapshot(again, cat.DB(), cat.Generation()+1, cat.Entries()); err != nil {
		t.Fatal(err)
	}
	cat2, err := OpenSnapshot(again)
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	assertProbeEqual(t, built, cat2.Entries()[0].H)
}

func TestSnapshotMultiEntryAndWorkers(t *testing.T) {
	db, q, u := snapFixture(t)
	hq := mustOpen(t, db, q)
	hu := mustOpen(t, db, u)
	path := saveToTemp(t, db, 0, []CatalogEntry{
		{Name: "q", Q: q, H: hq},
		{Name: "U", Q: u, H: hu},
	})
	cat, err := OpenSnapshot(path, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if got := cat.Entries(); len(got) != 2 || got[0].Name != "q" || got[1].Name != "U" {
		t.Fatalf("entries = %+v", got)
	}
	assertProbeEqual(t, hq, cat.Entries()[0].H)
	assertProbeEqual(t, hu, cat.Entries()[1].H)
}

// assertDynamicEqual compares two dynamic handles over their full current
// enumeration (Access position by position, plus inversion and
// membership). Dynamic handles have no All(), so assertProbeEqual does not
// apply.
func assertDynamicEqual(t *testing.T, a, b *Handle) {
	t.Helper()
	if a.Count() != b.Count() {
		t.Fatalf("Count: %d vs %d", a.Count(), b.Count())
	}
	inv, err := b.Inverter()
	if err != nil {
		t.Fatal(err)
	}
	for j := int64(0); j < a.Count(); j++ {
		at, err := a.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := b.Access(j)
		if err != nil {
			t.Fatal(err)
		}
		if !at.Equal(bt) {
			t.Fatalf("Access(%d): %v vs %v", j, at, bt)
		}
		if p, ok := inv.InvertedAccess(at); !ok || p != j {
			t.Fatalf("InvertedAccess(%v) = %d,%v, want %d", at, p, ok, j)
		}
	}
}

// TestSnapshotDynamicRoundTrip: dynamic entries persist their base
// contents and restore to an equivalent, still-updatable index that can be
// saved again (CapSnapshot survives the round trip).
func TestSnapshotDynamicRoundTrip(t *testing.T) {
	db, _, _ := snapFixture(t)
	dq := MustCQ("dq", []string{"a", "b"}, NewAtom("R", V("a"), V("b")))
	dyn := mustOpen(t, db, dq, WithDynamic())
	if !dyn.Has(CapSnapshot) {
		t.Fatal("dynamic handle lacks CapSnapshot")
	}
	upd, err := dyn.Updater()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate past the build: inserts, deletes, and a revive.
	v1, v2 := db.Intern("fresh-one"), db.Intern("fresh-two")
	if _, err := upd.Insert("R", Tuple{v1, v2}); err != nil {
		t.Fatal(err)
	}
	if _, err := upd.Delete("R", Tuple{v1, v2}); err != nil {
		t.Fatal(err)
	}
	if _, err := upd.Insert("R", Tuple{v1, v2}); err != nil {
		t.Fatal(err)
	}
	if _, err := upd.Insert("R", Tuple{v2, v1}); err != nil {
		t.Fatal(err)
	}
	if _, err := upd.Delete("R", Tuple{v2, v1}); err != nil {
		t.Fatal(err)
	}

	path := saveToTemp(t, db, 7, []CatalogEntry{{Name: "dq", Q: dq, H: dyn}})
	cat, err := OpenSnapshot(path, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	re := cat.Entries()[0].H
	if re.Kind() != KindDynamic || !re.Has(CapUpdate) || !re.Has(CapSnapshot) {
		t.Fatalf("restored dynamic entry: kind %s caps %v", re.Kind(), re.Capabilities())
	}
	assertDynamicEqual(t, dyn, re)

	// Identical further updates keep them in lockstep — including the
	// revive of the pre-save tombstone (v2, v1), which must come back at
	// the same position on both sides.
	reUpd, err := re.Updater()
	if err != nil {
		t.Fatal(err)
	}
	rdict := cat.DB().Dict()
	w1, _ := rdict.Lookup("fresh-one")
	w2, _ := rdict.Lookup("fresh-two")
	for _, op := range []struct {
		del bool
		t   Tuple
		rt  Tuple
	}{
		{false, Tuple{v2, v1}, Tuple{w2, w1}}, // revive
		{true, Tuple{v1, v2}, Tuple{w1, w2}},
		{false, Tuple{v1, v1}, Tuple{w1, w1}},
	} {
		var e1, e2 error
		if op.del {
			_, e1 = upd.Delete("R", op.t)
			_, e2 = reUpd.Delete("R", op.rt)
		} else {
			_, e1 = upd.Insert("R", op.t)
			_, e2 = reUpd.Insert("R", op.rt)
		}
		if e1 != nil || e2 != nil {
			t.Fatal(e1, e2)
		}
	}
	assertDynamicEqual(t, dyn, re)

	// And the restored entry saves again.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, cat.DB(), 8, []CatalogEntry{{Name: "dq", Q: cat.Entries()[0].Q, H: re}}); err != nil {
		t.Fatalf("re-save of restored dynamic entry: %v", err)
	}
}

func TestOpenSnapshotTypedErrors(t *testing.T) {
	db, q, _ := snapFixture(t)
	h := mustOpen(t, db, q)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, db, 0, []CatalogEntry{{Name: "q", Q: q, H: h}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"version", func(b []byte) []byte { b[8] ^= 0x7F; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)*2/3] }},
		{"bitflip", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
		{"tail cut", func(b []byte) []byte { return b[:len(b)-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat, err := OpenSnapshotBytes(tc.mutate(append([]byte(nil), data...)))
			if err == nil {
				cat.Close()
				t.Fatal("open succeeded on corrupt snapshot")
			}
			if !IsSnapshotInvalid(err) {
				t.Fatalf("err = %v, not in the ErrSnapshotInvalid family", err)
			}
		})
	}

	// A valid snapshot written to disk opens via the file path too.
	path := filepath.Join(t.TempDir(), "ok.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	cat.Close()

	// A missing file is an os error, not a decode error.
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "absent.snap")); err == nil || IsSnapshotInvalid(err) {
		t.Fatalf("missing file err = %v", err)
	}
}

// TestSnapshotFrozenRelations pins the mutation guard: inserting into a
// snapshot-backed relation must fail with an error (not fault on the
// read-only mapping), while re-preparing a fresh index over the restored
// database — which only reads the base relations — must work.
func TestSnapshotFrozenRelations(t *testing.T) {
	db, q, _ := snapFixture(t)
	h := mustOpen(t, db, q)
	path := saveToTemp(t, db, 0, []CatalogEntry{{Name: "q", Q: q, H: h}})
	cat, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	r, err := cat.DB().Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(Tuple{1, 2}); err == nil {
		t.Fatal("Insert into snapshot-backed relation succeeded")
	}

	// Recompiling against the restored database is the daemon's rebuild
	// path: reduction filters into fresh heap relations, so it must succeed
	// and agree with the restored index.
	fresh, err := Open(cat.DB(), cat.Entries()[0].Q)
	if err != nil {
		t.Fatal(err)
	}
	assertProbeEqual(t, fresh, cat.Entries()[0].H)
}

// TestHandleOverCatalogDBOutlivesClose pins Catalog.Close's promise to a
// handle Opened over DB(): Open copies a snapshot-backed base's columns
// rather than borrowing them, so the handle keeps answering after the
// mapping is gone. R is over the size that OpenSnapshot maps rather than
// reads, and the query's one atom is a root in bucket order that no
// semijoin shrinks — the node that would keep a borrowed base's arrays.
func TestHandleOverCatalogDBOutlivesClose(t *testing.T) {
	db := NewDatabase()
	r := db.MustCreate("R", "a", "b")
	for i := range Value(80_000) {
		r.MustInsert(i, i%100)
	}
	path := filepath.Join(t.TempDir(), "big.snap")
	if err := SaveSnapshot(path, db, 0, nil); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() <= 1<<20 {
		t.Fatalf("fixture: the snapshot must be over 1 MiB to be mapped: %v, %v", st, err)
	}
	cat, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	q := MustCQ("q", []string{"a", "b"}, NewAtom("R", V("a"), V("b")))
	h := mustOpen(t, cat.DB(), q)
	cat.Close()
	assertProbeEqual(t, mustOpen(t, db, q), h)
}

func TestSnapshotRejectsErrorFamily(t *testing.T) {
	if !errors.Is(ErrSnapshotInvalid, ErrSnapshotInvalid) {
		t.Fatal("sanity")
	}
}

// TestOpenSnapshotRejectsCraftedCounts pins three decoder hardening cases a
// blind bit-flip cannot reach (they need checksum-valid files with hostile
// contents): meta section counts whose sum wraps to the real section count,
// a union entry whose index count is astronomically large, and a dynamic
// entry whose base table holds one tuple twice. All must come back as typed
// errors, not a panic, a huge allocation or a silently deduplicated index.
func TestOpenSnapshotRejectsCraftedCounts(t *testing.T) {
	forge := func(build func(w *snapshot.Writer)) []byte {
		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf)
		build(w)
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	writeDict := func(w *snapshot.Writer) {
		s := w.Section(2) // secDict
		s.U64(1)
		s.Str("")
		s.Close()
	}

	// Meta counts that wrap: 2^63 + 2^63 ≡ 0 mod 2^64 == len(secs)-2.
	overflow := forge(func(w *snapshot.Writer) {
		s := w.Section(1) // secMeta
		s.U64(0)
		s.U64(1 << 63)
		s.U64(1 << 63)
		s.Close()
		writeDict(w)
	})
	if _, err := OpenSnapshotBytes(overflow); !IsSnapshotInvalid(err) {
		t.Fatalf("wrapping meta counts: err = %v", err)
	}

	// A 3-disjunct union entry claiming 2^61 indexes.
	u := MustUCQ("U",
		MustCQ("a", []string{"x"}, NewAtom("R", V("x"))),
		MustCQ("b", []string{"x"}, NewAtom("S", V("x"))),
		MustCQ("c", []string{"x"}, NewAtom("T", V("x"))))
	hugeUnion := forge(func(w *snapshot.Writer) {
		s := w.Section(1)
		s.U64(0)
		s.U64(0) // no relations
		s.U64(1) // one entry
		s.Close()
		writeDict(w)
		s = w.Section(4) // secEntry
		s.Str("U")
		query.MarshalQuery(s, u)
		s.U64(2) // entryKindUCQ
		s.U64(1 << 61)
		s.Close()
	})
	if _, err := OpenSnapshotBytes(hugeUnion); !IsSnapshotInvalid(err) {
		t.Fatalf("huge union index count: err = %v", err)
	}

	// A dynamic base table with the same tuple at positions 0 and 2, the
	// first tombstoned: the live index never exports one, and loading it
	// would leave Dead positions that disagree with the file.
	dq := MustCQ("dq", []string{"a", "b"}, NewAtom("R", V("a"), V("b")))
	dynamicEntry := func(values []int64) []byte {
		return forge(func(w *snapshot.Writer) {
			s := w.Section(1)
			s.U64(0)
			s.U64(0)
			s.U64(1)
			s.Close()
			writeDict(w)
			s = w.Section(4)
			s.Str("dq")
			query.MarshalQuery(s, dq)
			s.U64(3) // entryKindDynamic
			s.U64(1) // one base table
			s.Str("R")
			s.U64(2) // arity
			s.U64(3) // tuples
			s.I64s(values)
			s.I64s([]int64{0}) // dead
			s.Close()
		})
	}
	cat, err := OpenSnapshotBytes(dynamicEntry([]int64{0, 0, 0, 1, 1, 0}))
	if err != nil {
		t.Fatalf("distinct tuples: %v", err)
	}
	if n := cat.Entries()[0].H.Count(); n != 2 {
		t.Fatalf("distinct tuples, one dead: Count = %d, want 2", n)
	}
	cat.Close()
	if _, err := OpenSnapshotBytes(dynamicEntry([]int64{0, 0, 0, 1, 0, 0})); !IsSnapshotInvalid(err) || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate tuple in a dynamic base table: err = %v", err)
	}
}
