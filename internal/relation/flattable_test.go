package relation

import (
	"fmt"
	"math"
	"testing"
)

// keyModel is the reference the fuzz target holds the flat table to: plain
// Go maps over canonical string keys.
type keyModel struct {
	pos  map[string]int
	rows []Tuple
}

func (m *keyModel) insert(t Tuple) bool {
	if _, ok := m.pos[t.Key()]; ok {
		return false
	}
	m.pos[t.Key()] = len(m.rows)
	m.rows = append(m.rows, t.Clone())
	return true
}

func (m *keyModel) position(t Tuple) int {
	if p, ok := m.pos[t.Key()]; ok {
		return p
	}
	return -1
}

// groups assigns first-appearance ids to the rows' keys at positions.
func (m *keyModel) groups(positions []int) (ids map[string]uint32, groupOf []uint32, first []int32) {
	ids = map[string]uint32{}
	for i, row := range m.rows {
		k := row.ProjectKey(positions)
		id, ok := ids[k]
		if !ok {
			id = uint32(len(first))
			ids[k] = id
			first = append(first, int32(i))
		}
		groupOf = append(groupOf, id)
	}
	return ids, groupOf, first
}

// fuzzValue decodes one byte into a value. dense keeps every value in
// [0, 32), so width-1 key sets take the bitmap; otherwise the top three bits
// pick a class — small, negative, ≥ 2³², sparse, at either end of the int64
// range — and the low five an offset within it.
func fuzzValue(b byte, dense bool) Value {
	off := Value(b & 31)
	if dense {
		return off
	}
	switch b >> 5 {
	case 0, 1:
		return off
	case 2:
		return -1 - off
	case 3:
		return 1<<32 + off
	case 4:
		return off * 1_000_003
	case 5:
		return math.MaxInt64 - off
	case 6:
		return math.MinInt64 + off
	default:
		return off<<40 - 1<<44
	}
}

// FuzzKeyTable holds every lookup built on the flat table — the membership
// index (Position, PositionProjected, Contains, Insert with duplicates and
// growth), GroupBy and LookupAt, SemijoinWith, DistinctCount and Project —
// to a Go-map model. data[0] picks R's arity (0–5) and how many attributes S
// shares with it, data[1] whether values stay in a dense span; the rest are
// R's rows, then S's.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{0x12, 0, 1, 2, 1, 2, 3, 4, 1, 2, 5, 5, 3, 4})
	f.Add([]byte{0x21, 1, 0x60, 0x7f, 0x40, 0x81, 0x60, 0x7f, 0xa3, 0xc1, 0xe2, 0x41})
	f.Add([]byte{0x43, 0, 1, 2, 3, 4, 5, 1, 2, 3, 4, 6, 1, 2, 3, 4, 5, 7, 9, 9})
	f.Add([]byte{0x34, 1, 0x90, 0x91, 0x92, 0x93, 0x94, 0x90, 0x91, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99})
	f.Add([]byte{0x00, 0, 1, 1, 1})
	// One shared attribute: a sparse column whose first value comes back
	// after others, and a dense one whose minimum is not zero.
	f.Add([]byte{0x14, 1, 0x85, 1, 0x86, 2, 0x85, 3, 0x87, 4, 0x86, 5, 0x85, 6, 0x86, 1, 0x85, 2, 0x88, 3, 0x87, 4, 0x89, 5})
	f.Add([]byte{0x13, 0, 9, 10, 12, 9, 11, 10, 13, 9, 10, 1, 14, 2, 12, 3, 9, 4})
	dense := make([]byte, 2+3*40)
	dense[0] = 0x15 // arity 3, S shares one attribute
	for i := range dense[2:] {
		dense[2+i] = byte(i * 7 % 29)
	}
	f.Add(dense)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		arity := int(data[0] % 6)
		shared := 0
		if arity > 0 {
			shared = int(data[0]>>4) % (arity + 1)
		}
		isDense := data[1]&1 == 0
		vals := data[2:]
		half := len(vals) / 2
		if arity > 0 {
			half -= half % arity
		}

		attrs := make([]string, arity)
		for a := range attrs {
			attrs[a] = fmt.Sprintf("a%d", a)
		}
		r := NewRelation("R", MustSchema(attrs...))
		m := &keyModel{pos: map[string]int{}}
		var probes []Tuple
		row := make(Tuple, arity)
		insertRow := func() {
			added, err := r.Insert(row)
			if err != nil {
				t.Fatal(err)
			}
			if want := m.insert(row); added != want {
				t.Fatalf("Insert(%v) added=%v, want %v", row, added, want)
			}
			probes = append(probes, row.Clone())
		}
		if arity == 0 {
			for range vals[:half] {
				insertRow()
			}
		}
		for i := 0; arity > 0 && i+arity <= half; i += arity {
			for a := range row {
				row[a] = fuzzValue(vals[i+a], isDense)
			}
			insertRow()
		}
		if r.Len() != len(m.rows) {
			t.Fatalf("Len = %d, want %d", r.Len(), len(m.rows))
		}

		// S: the shared attributes in reverse order, then one of its own.
		sAttrs := []string{}
		for a := shared - 1; a >= 0; a-- {
			sAttrs = append(sAttrs, attrs[a])
		}
		sAttrs = append(sAttrs, "z")
		s := NewRelation("S", MustSchema(sAttrs...))
		sRow := make(Tuple, len(sAttrs))
		for i := half; i+len(sRow) <= len(vals); i += len(sRow) {
			for a := range sRow {
				sRow[a] = fuzzValue(vals[i+a], isDense)
			}
			s.MustInsert(sRow...)
			// S's shared values, laid back into R's attribute order, probe R.
			probe := make(Tuple, arity)
			for a := range probe {
				probe[a] = fuzzValue(vals[i+a%len(sRow)], isDense)
			}
			for k := 0; k < shared; k++ {
				probe[shared-1-k] = sRow[k]
			}
			probes = append(probes, probe)
		}

		// The membership index, maintained by Insert and rebuilt from columns.
		cols := make([][]Value, arity)
		for a := range cols {
			cols[a] = append([]Value(nil), r.Col(a)...)
		}
		adopted, err := AdoptColumns("A", r.Schema(), r.Len(), cols)
		if err != nil {
			t.Fatal(err)
		}
		proj := make([]int, arity) // src holds the tuple back to front, after one pad value
		for a := range proj {
			proj[a] = arity - a
		}
		src := make(Tuple, arity+1)
		for _, p := range probes {
			want := m.position(p)
			for a, v := range p {
				src[arity-a] = v
			}
			for _, rel := range []*Relation{r, adopted} {
				if got := rel.Position(p); got != want {
					t.Fatalf("%s.Position(%v) = %d, want %d", rel.Name(), p, got, want)
				}
				if got := rel.PositionProjected(src, proj); got != want {
					t.Fatalf("%s.PositionProjected(%v) = %d, want %d", rel.Name(), src, got, want)
				}
				if rel.Contains(p) != (want >= 0) {
					t.Fatalf("%s.Contains(%v) = %v", rel.Name(), p, !(want >= 0))
				}
			}
		}

		// GroupBy on the shared attributes (in S's order), LookupAt from S.
		rPos, _ := r.Schema().Positions(sAttrs[:shared])
		sPos, _ := s.Schema().Positions(sAttrs[:shared])
		g := r.GroupBy(rPos)
		ids, groupOf, first := m.groups(rPos)
		if g.NumGroups() != len(first) || fmt.Sprint(g.First) != fmt.Sprint(first) {
			t.Fatalf("GroupBy(%v).First = %v, want %v", rPos, g.First, first)
		}
		if fmt.Sprint(g.GroupOf) != fmt.Sprint(groupOf) {
			t.Fatalf("GroupBy(%v).GroupOf = %v, want %v", rPos, g.GroupOf, groupOf)
		}
		for i := 0; i < s.Len(); i++ {
			want, ok := ids[s.Tuple(i).ProjectKey(sPos)]
			if got, gotOK := g.LookupAt(s, i, sPos); gotOK != ok || (ok && got != want) {
				t.Fatalf("LookupAt(S row %d) = %d,%v, want %d,%v", i, got, gotOK, want, ok)
			}
		}

		// SemijoinWith: the surviving rows, in order.
		inS := map[string]bool{}
		for i := 0; i < s.Len(); i++ {
			inS[s.Tuple(i).ProjectKey(sPos)] = true
		}
		var kept []Tuple
		for _, row := range m.rows {
			if (shared == 0 && s.Len() > 0) || (shared > 0 && inS[row.ProjectKey(rPos)]) {
				kept = append(kept, row)
			}
		}
		semi := r.Clone()
		if removed := semi.SemijoinWith(s); removed != len(m.rows)-len(kept) {
			t.Fatalf("SemijoinWith removed %d, want %d", removed, len(m.rows)-len(kept))
		}
		if fmt.Sprint(semi.Tuples()) != fmt.Sprint(kept) {
			t.Fatalf("SemijoinWith kept %v, want %v", semi.Tuples(), kept)
		}

		// DistinctCount per column, and Project onto the shared attributes.
		for a := 0; a < arity; a++ {
			if _, _, first := m.groups([]int{a}); r.DistinctCount(a) != len(first) {
				t.Fatalf("DistinctCount(%d) = %d, want %d", a, r.DistinctCount(a), len(first))
			}
		}
		p, err := r.Project("P", sAttrs[:shared])
		if err != nil {
			t.Fatal(err)
		}
		var want []Tuple
		for _, i := range first {
			want = append(want, m.rows[i].Project(rPos))
		}
		if fmt.Sprint(p.Tuples()) != fmt.Sprint(want) {
			t.Fatalf("Project(%v) = %v, want %v", sAttrs[:shared], p.Tuples(), want)
		}

		// Released keys: a key of width ≥ 1 misses.
		g.ReleaseKeys()
		if shared > 0 && s.Len() > 0 {
			if _, ok := g.LookupAt(s, 0, sPos); ok {
				t.Fatal("LookupAt answered after ReleaseKeys")
			}
		}
	})
}

// unmix64 inverts mix64: each xor-shift by 32 is its own inverse, and
// multiplication by an odd constant is undone by its inverse mod 2⁶⁴.
func unmix64(x uint64) uint64 {
	const c = 0xd6e8feb86659fd93
	inv := uint64(c)
	for i := 0; i < 5; i++ { // Newton's iteration doubles the correct low bits
		inv *= 2 - c*inv
	}
	x ^= x >> 32
	x *= inv
	x ^= x >> 32
	x *= inv
	x ^= x >> 32
	return x
}

// meanProbeLength is the mean number of slots a lookup of a stored key reads.
func meanProbeLength(t *flatTable) float64 {
	mask := len(t.slots) - 1
	total, n := 0, 0
	for s, e := range t.slots {
		if e != 0 {
			total += (s-int(e>>t.shift))&mask + 1
			n++
		}
	}
	return float64(total) / float64(n)
}

// TestFlatTableHostileKeys: 2¹⁷ keys chosen so that, under seed zero, every
// one hashes into slot 0 — the attack a fixed hash invites, and CSV cells
// reach the membership index from /admin/load. A seeded table must spread
// them like any other keys.
func TestFlatTableHostileKeys(t *testing.T) {
	const n = 1 << 17
	for _, x := range []uint64{0, 1, 1 << 63, 0xdeadbeef} {
		if mix64(unmix64(x)) != x {
			t.Fatalf("unmix64 does not invert mix64 at %#x", x)
		}
	}
	// Under seed zero a width-1 key v hashes to mix64(v); these keys hash to
	// 0 … n−1, whose top 47 bits are clear.
	keys := make([]Value, n)
	for i := range keys {
		keys[i] = Value(unmix64(uint64(i)))
	}
	zero := newFlatTable(n)
	zero.seed = 0
	for _, k := range keys {
		if h := zero.hash([]Value{k}); h>>zero.shift != 0 {
			t.Fatalf("key %d: home slot %d under seed zero, want 0", k, h>>zero.shift)
		}
	}
	// Inserted under seed zero, even a thousand of them degrade every
	// lookup into a scan.
	r := NewRelation("R", MustSchema("a"))
	r.index.seed = 0
	for _, k := range keys[:1024] {
		r.MustInsert(k)
	}
	if mean := meanProbeLength(r.index); mean < 100 {
		t.Fatalf("seed zero: mean probe length %.1f, the keys are not hostile", mean)
	}

	r = NewRelation("R", MustSchema("a"))
	for _, k := range keys {
		r.MustInsert(k)
	}
	if mean := meanProbeLength(r.index); mean > 4 {
		t.Fatalf("seeded table: mean probe length %.2f over %d hostile keys, want ≤ 4", mean, n)
	}
	for i, k := range keys {
		if r.Position(Tuple{k}) != i {
			t.Fatalf("key %d lost", i)
		}
	}
	if r.DistinctCount(0) != n || r.GroupBy([]int{0}).NumGroups() != n {
		t.Fatal("hostile keys miscounted")
	}
}
