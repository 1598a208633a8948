package relation

import (
	"fmt"
	"math"
	"math/rand/v2"
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

// Value modes of FuzzKeyTable, picked by data[1].
const (
	modeDense  = iota // every value in [0, 32): a bitmap under either span rule
	modeSparse        // classes far apart: hashed
	modeMid           // spans between 4 × the row count and 2²⁰: a bitmap only under denseMaxBits
)

// fuzzValue decodes one byte into a value. modeDense keeps every value in
// [0, 32), so width-1 key sets take the bitmap. modeMid spreads the bytes
// 4099 apart around zero, so a column of up to 255 rows spans more than four
// values per row and less than denseMaxBits unless all its bytes are equal.
// In modeSparse the top three bits pick a class — small, negative, ≥ 2³²,
// sparse, at either end of the int64 range — and the low five an offset
// within it.
func fuzzValue(b byte, mode int) Value {
	off := Value(b & 31)
	switch mode {
	case modeDense:
		return off
	case modeMid:
		return Value(b)*4099 - 1<<19
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

// keyTableSeed lays out a FuzzKeyTable input with an explicit split: R has
// rRows rows of the given arity, S sRows rows of shared+1 attributes. Every
// other row of S repeats the shared values of one of R's rows, so the
// semijoins keep some rows and drop others at any key width. Bytes come from
// a fixed linear congruential sequence.
func keyTableSeed(arity, shared, mode, rRows, sRows int) []byte {
	flags := byte(4) // explicit split: vals[0] is R's row count
	switch mode {
	case modeSparse:
		flags |= 1
	case modeMid:
		flags |= 2
	}
	var head byte // decodes to arity and shared, as FuzzKeyTable reads data[0]
	for int(head%6) != arity || int(head>>4)%(arity+1) != shared {
		head++
	}
	data := []byte{head, flags, byte(rRows)}
	x := uint32(12345)
	next := func() byte {
		x = x*1103515245 + 12345
		return byte(x >> 16)
	}
	var rows [][]byte
	for i := 0; i < rRows; i++ {
		row := make([]byte, arity)
		for a := range row {
			row[a] = next()
		}
		rows = append(rows, row)
		data = append(data, row...)
	}
	for i := 0; i < sRows; i++ {
		sRow := make([]byte, shared+1)
		for a := range sRow {
			sRow[a] = next()
		}
		if i%2 == 0 && rRows > 0 {
			// S holds the shared attributes in reverse order.
			src := rows[int(next())%rRows]
			for k := 0; k < shared; k++ {
				sRow[k] = src[shared-1-k]
			}
		}
		data = append(data, sRow...)
	}
	return data
}

// FuzzKeyTable holds every lookup built on the flat table — the membership
// index (Position, PositionProjected, Contains, Insert with duplicates and
// growth), GroupBy and LookupRows, SemijoinWith both ways round, and
// Project — to a Go-map model. data[0] picks R's arity (0–5) and how many
// attributes S shares with it. data[1] bit 0 picks
// modeSparse over modeDense and bit 1 modeMid over both; bit 2 makes the
// next byte R's row count, where otherwise R and S split the rest in half.
// The rest are R's rows, then S's.
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
	// R and S across the 64-row block boundary, in each value mode.
	for _, n := range []int{63, 64, 65, 129} {
		for mode := modeDense; mode <= modeMid; mode++ {
			f.Add(keyTableSeed(2, 1, mode, n, n))
			f.Add(keyTableSeed(3, 2, mode, n, n+1))
		}
	}
	// |S| ≫ |R| and |R| ≫ |S| at key widths 1–3, and an empty side.
	for w := 1; w <= 3; w++ {
		for mode := modeDense; mode <= modeMid; mode++ {
			f.Add(keyTableSeed(w+1, w, mode, 3, 200))
			f.Add(keyTableSeed(w+1, w, mode, 200, 3))
		}
		f.Add(keyTableSeed(w, w, modeSparse, 0, 70))
		f.Add(keyTableSeed(w, w, modeSparse, 70, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		arity := int(data[0] % 6)
		shared := 0
		if arity > 0 {
			shared = int(data[0]>>4) % (arity + 1)
		}
		mode := modeDense
		switch {
		case data[1]&2 != 0:
			mode = modeMid
		case data[1]&1 != 0:
			mode = modeSparse
		}
		vals := data[2:]
		half := len(vals) / 2
		if data[1]&4 != 0 && len(vals) > 0 {
			half = min(int(vals[0])*max(arity, 1), len(vals)-1)
			vals = vals[1:]
		}
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
				row[a] = fuzzValue(vals[i+a], mode)
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
				sRow[a] = fuzzValue(vals[i+a], mode)
			}
			s.MustInsert(sRow...)
			// S's shared values, laid back into R's attribute order, probe R.
			probe := make(Tuple, arity)
			for a := range probe {
				probe[a] = fuzzValue(vals[i+a%len(sRow)], mode)
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
		adopted.BuildIndex()
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

		// GroupBy on the shared attributes (in S's order), LookupRows from S.
		rPos, _ := r.Schema().Positions(sAttrs[:shared])
		sPos, _ := s.Schema().Positions(sAttrs[:shared])
		g := r.GroupBy(rPos)
		ids, groupOf, first := m.groups(rPos)
		if g.NumGroups() != len(first) || len(rPos) > 0 && fmt.Sprint(g.first) != fmt.Sprint(first) {
			t.Fatalf("GroupBy(%v) first rows = %v, want %v", rPos, g.first, first)
		}
		if fmt.Sprint(g.GroupOf) != fmt.Sprint(groupOf) {
			t.Fatalf("GroupBy(%v).GroupOf = %v, want %v", rPos, g.GroupOf, groupOf)
		}
		groups := g.LookupRows(s, sPos)
		if len(groups) != s.Len() {
			t.Fatalf("LookupRows gave %d groups for %d rows", len(groups), s.Len())
		}
		for i, got := range groups {
			want, ok := ids[s.Tuple(i).ProjectKey(sPos)]
			if !ok {
				want = ^uint32(0) // −1
			}
			if got != int32(want) {
				t.Fatalf("LookupRows: S row %d in group %d, want %d", i, got, int32(want))
			}
		}

		// SemijoinWith both ways round — whichever side is smaller gets
		// hashed — checked by its removed count and its surviving rows, in
		// order.
		checkSemijoin(t, r, rPos, s, sPos)
		checkSemijoin(t, s, sPos, r, rPos)

		// Project onto each single column (a bitmap key set when the span is
		// dense), and onto the shared attributes.
		for a, attr := range r.Schema() {
			p, err := r.Project("P", []string{attr})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, first := m.groups([]int{a}); p.Len() != len(first) {
				t.Fatalf("Project(%s) has %d rows, want %d", attr, p.Len(), len(first))
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
		if shared > 0 {
			for i, got := range g.LookupRows(s, sPos) {
				if got != -1 {
					t.Fatalf("LookupRows after ReleaseKeys: S row %d in group %d", i, got)
				}
			}
		}
	})
}

// checkSemijoin checks a ⋉ b, on a clone of a, against a Go-map model:
// the rows of a whose key at aPos is some row's key of b at bPos survive, in
// order, and SemijoinWith reports how many it removed.
func checkSemijoin(t *testing.T, a *Relation, aPos []int, b *Relation, bPos []int) {
	t.Helper()
	inB := map[string]bool{}
	for i := 0; i < b.Len(); i++ {
		inB[b.Tuple(i).ProjectKey(bPos)] = true
	}
	all := a.Tuples()
	var kept []Tuple
	for _, row := range all {
		if (len(aPos) == 0 && b.Len() > 0) || (len(aPos) > 0 && inB[row.ProjectKey(aPos)]) {
			kept = append(kept, row)
		}
	}
	semi := a.Clone()
	if removed := semi.SemijoinWith(b); removed != len(all)-len(kept) {
		t.Fatalf("%s ⋉ %s removed %d, want %d", a.Name(), b.Name(), removed, len(all)-len(kept))
	}
	if fmt.Sprint(semi.Tuples()) != fmt.Sprint(kept) {
		t.Fatalf("%s ⋉ %s kept %v, want %v", a.Name(), b.Name(), semi.Tuples(), kept)
	}
}

// TestHashBlockMatchesHash: the block kernel's hashes are exactly hash's
// values of the gathered rows, for every key width, at and around the block
// size, from any starting row.
func TestHashBlockMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for width := 1; width <= 5; width++ {
		for _, n := range []int{0, 1, 63, 64, 65, 200} {
			cols := make([][]Value, width)
			for k := range cols {
				cols[k] = make([]Value, n)
				for i := range cols[k] {
					cols[k][i] = Value(rng.Uint64())
				}
			}
			tab := newFlatTable(n)
			var hs [blockRows]uint64
			key := make([]Value, width)
			for _, start := range []int{0, 1} {
				for lo := start; lo < n; lo += blockRows {
					block := hs[:min(blockRows, n-lo)]
					tab.hashBlock(block, cols, lo)
					for j, h := range block {
						for k, col := range cols {
							key[k] = col[lo+j]
						}
						if want := tab.hash(key); h != want {
							t.Fatalf("width %d, n %d: row %d hashes to %#x in a block, %#x alone", width, n, lo+j, h, want)
						}
					}
				}
			}
		}
	}
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
	if p, _ := r.Project("P", []string{"a"}); p.Len() != n || r.GroupBy([]int{0}).NumGroups() != n {
		t.Fatal("hostile keys miscounted")
	}
}
