package access

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/synth"
)

// marshalIndex frames one index as a single-section snapshot byte stream.
func marshalIndex(t *testing.T, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	s := w.Section(1)
	idx.Marshal(s)
	s.Close()
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func reopenIndex(t *testing.T, data []byte) (*Index, *snapshot.File) {
	t.Helper()
	f, err := snapshot.OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	r := f.Sections()[0].Reader()
	idx, err := UnmarshalIndex(r)
	if err != nil {
		t.Fatal(err)
	}
	return idx, f
}

func buildStarIndex(t *testing.T) *Index {
	t.Helper()
	db, q, err := synth.Star(synth.Config{Relations: 3, TuplesPerRelation: 60, KeyDomain: 25, SkewS: 1.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	fj, err := reduce.BuildFullJoin(db, q, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(fj)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestIndexSnapshotRoundTrip proves the restored index is probe-for-probe
// identical to the built one: Count, the full enumeration order, inverted
// access of every answer, and Contains on hits and misses.
func TestIndexSnapshotRoundTrip(t *testing.T) {
	built := buildStarIndex(t)
	restored, f := reopenIndex(t, marshalIndex(t, built))
	defer f.Close()

	if restored.Count() != built.Count() {
		t.Fatalf("Count: restored %d, built %d", restored.Count(), built.Count())
	}
	if len(restored.Head()) != len(built.Head()) {
		t.Fatalf("Head: %v vs %v", restored.Head(), built.Head())
	}
	for i, h := range built.Head() {
		if restored.Head()[i] != h {
			t.Fatalf("Head[%d]: %q vs %q", i, restored.Head()[i], h)
		}
	}
	bBuf := make(relation.Tuple, len(built.Head()))
	rBuf := make(relation.Tuple, len(built.Head()))
	for j := int64(0); j < built.Count(); j++ {
		if err := built.AccessInto(j, bBuf); err != nil {
			t.Fatal(err)
		}
		if err := restored.AccessInto(j, rBuf); err != nil {
			t.Fatal(err)
		}
		if !bBuf.Equal(rBuf) {
			t.Fatalf("Access(%d): restored %v, built %v", j, rBuf, bBuf)
		}
		inv, ok := restored.InvertedAccess(bBuf)
		if !ok || inv != j {
			t.Fatalf("InvertedAccess(Access(%d)) = %d, %v", j, inv, ok)
		}
	}
	// Out-of-range and miss behavior.
	if _, err := restored.Access(built.Count()); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("Access(Count()) err = %v", err)
	}
	miss := make(relation.Tuple, len(built.Head()))
	for i := range miss {
		miss[i] = relation.Value(1 << 40)
	}
	if restored.Contains(miss) {
		t.Fatal("Contains(miss) = true")
	}
	// OrderSpec is derived from the restored schemas.
	bo, ro := built.OrderSpec(), restored.OrderSpec()
	if len(bo) != len(ro) {
		t.Fatalf("OrderSpec: %v vs %v", ro, bo)
	}
	for i := range bo {
		if bo[i] != ro[i] {
			t.Fatalf("OrderSpec[%d]: %q vs %q", i, ro[i], bo[i])
		}
	}
}

// TestIndexSnapshotBatchAndSampler checks the batched and sampling surfaces
// on a restored index (they exercise the baseline bounds and the child key
// positions recomputed at restore).
func TestIndexSnapshotBatchAndSampler(t *testing.T) {
	built := buildStarIndex(t)
	restored, f := reopenIndex(t, marshalIndex(t, built))
	defer f.Close()

	n := built.Count()
	js := make([]int64, 257)
	rng := rand.New(rand.NewSource(1))
	for i := range js {
		js[i] = rng.Int63n(n)
	}
	want, err := built.AccessBatch(js, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.AccessBatch(js, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("AccessBatch[%d]: %v vs %v", i, got[i], want[i])
		}
	}

	// The baseline samplers walk the weights, the bounds derived from them
	// and the child key wiring recomputed at restore; same seed must draw
	// identically.
	restoredTrials := baselineTrials(restored)
	for name, drawBuilt := range baselineTrials(built) {
		drawRestored := restoredTrials[name]
		rb, rr := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for i := 0; i < 64; i++ {
			tb, okb := drawBuilt(rb)
			tr, okr := drawRestored(rr)
			if okb != okr || (okb && !tb.Equal(tr)) {
				t.Fatalf("%s sampler draw %d: restored (%v,%v), built (%v,%v)", name, i, tr, okr, tb, okb)
			}
		}
	}
}

// TestUnmarshalIndexRejectsCorruption pins that a structurally nonsensical
// index section comes back as a typed error (the root-level fuzz target
// covers the mutation space exhaustively).
func TestUnmarshalIndexRejectsCorruption(t *testing.T) {
	var gb bytes.Buffer
	gw := snapshot.NewWriter(&gb)
	gs := gw.Section(1)
	gs.U64(2) // head count 2 with no strings behind it
	gs.Close()
	if err := gw.Finish(); err != nil {
		t.Fatal(err)
	}
	gf, err := snapshot.OpenBytes(gb.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	if _, err := UnmarshalIndex(gf.Sections()[0].Reader()); !errors.Is(err, snapshot.ErrInvalid) {
		t.Fatalf("garbage index section: err = %v, want ErrInvalid family", err)
	}
}
