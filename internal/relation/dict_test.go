package relation

import (
	"bytes"
	"strconv"
	"sync"
	"testing"
)

// dictModel is the Go-map reference FuzzDict holds a Dict to.
type dictModel struct {
	ids   map[string]Value
	order []string
}

func (m *dictModel) intern(s string) Value {
	if v, ok := m.ids[s]; ok {
		return v
	}
	v := Value(len(m.order))
	m.ids[s] = v
	m.order = append(m.order, s)
	return v
}

// check compares every read of d against the model.
func (m *dictModel) check(t *testing.T, d *Dict) {
	t.Helper()
	if d.Len() != len(m.order) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(m.order))
	}
	for i, s := range m.order {
		v := Value(i)
		if got := d.String(v); got != s {
			t.Fatalf("String(%d) = %q, want %q", i, got, s)
		}
		if got, ok := d.StringInterned(v); !ok || got != s {
			t.Fatalf("StringInterned(%d) = %q, %v, want %q", i, got, ok, s)
		}
		if got, ok := d.Lookup(s); !ok || got != v {
			t.Fatalf("Lookup(%q) = %d, %v, want %d", s, got, ok, v)
		}
	}
	for _, v := range []Value{-1, Value(len(m.order)), Value(len(m.order)) + 1} {
		if got, want := d.String(v), "#"+strconv.FormatInt(int64(v), 10); got != want {
			t.Fatalf("String(%d) = %q, want %q", v, got, want)
		}
		if _, ok := d.StringInterned(v); ok {
			t.Fatalf("StringInterned(%d) found a string outside the dictionary", v)
		}
	}
}

// FuzzDict holds Intern, InternBytes, Lookup, String and StringInterned to
// a Go-map model. data is a 0xff-separated list of operations: an
// operation's first byte picks what it does with the rest, s.
//
//	0: Intern(s)    1: InternBytes(s)    2: Lookup(s)
//	3: intern s+"0" … s+"k" for k = 4·s[0], alternating the two methods
//	4: restore the dictionary from its value table (NewDictFromStrings)
//	5: InternCells of the ','-separated cells of s, then of s[0] more
//	   cells drawn from them with a suffix (blocks of 64 cells and more,
//	   values repeated inside a batch)
func FuzzDict(f *testing.F) {
	f.Add([]byte("\x00\xff\x01\xff\x02\xff\x00a\xff\x01a\xff\x02a\xff\x02b"))
	f.Add([]byte("\x00\xfe\x80\xff\x01\xc3\x28\xff\x02\xfe\x80\xff\x01\xfe\x80\xff\x00\xed\xa0\x80"))
	f.Add([]byte("\x03\xfax\xff\x03\x40x\xff\x00x17\xff\x02x999"))
	f.Add([]byte("\x00a\xff\x01b\xff\x04\xff\x02a\xff\x00c\xff\x01a\xff\x03\x20y\xff\x04\xff\x02y5"))
	f.Add([]byte("\x04\xff\x01\xff\x00"))
	f.Add([]byte("\x05a,b,,a\xff\x02b\xff\x00c\xff\x05c,d"))
	f.Add([]byte("\x00x3\xff\x05\x80x,y\xff\x04\xff\x05\xc8x,z\xff\x01y70"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDict()
		m := &dictModel{ids: map[string]Value{"": 0}, order: []string{""}}
		for _, op := range bytes.Split(data, []byte{0xff}) {
			if len(op) == 0 {
				continue
			}
			s := op[1:]
			switch op[0] % 6 {
			case 0:
				if got, want := d.Intern(string(s)), m.intern(string(s)); got != want {
					t.Fatalf("Intern(%q) = %d, want %d", s, got, want)
				}
			case 1:
				if got, want := d.InternBytes(s), m.intern(string(s)); got != want {
					t.Fatalf("InternBytes(%q) = %d, want %d", s, got, want)
				}
			case 2:
				want, wantOK := m.ids[string(s)]
				if got, ok := d.Lookup(string(s)); ok != wantOK || ok && got != want {
					t.Fatalf("Lookup(%q) = %d, %v, want %d, %v", s, got, ok, want, wantOK)
				}
			case 3:
				if len(s) == 0 {
					continue
				}
				for k := 0; k <= 4*int(s[0]); k++ {
					b := strconv.AppendInt(append([]byte(nil), s...), int64(k), 10)
					var got Value
					if k%2 == 0 {
						got = d.InternBytes(b)
					} else {
						got = d.Intern(string(b))
					}
					if want := m.intern(string(b)); got != want {
						t.Fatalf("intern %q = %d, want %d", b, got, want)
					}
				}
			case 4:
				r, err := NewDictFromStrings(append([]string(nil), m.order...))
				if err != nil {
					t.Fatal(err)
				}
				d = r
			case 5:
				cells := bytes.Split(s, []byte(","))
				if len(s) > 0 {
					for k := range int(s[0]) {
						cell := append([]byte(nil), cells[k%len(cells)]...)
						cells = append(cells, strconv.AppendInt(cell, int64(k%70), 10))
					}
				}
				buf, offs := bytes.Join(cells, nil), []int{0}
				for _, c := range cells {
					offs = append(offs, offs[len(offs)-1]+len(c))
				}
				got := make([]Value, len(cells))
				d.InternCells(buf, offs, got)
				clear(buf) // InternCells keeps no part of buf
				for i, c := range cells {
					if want := m.intern(string(c)); got[i] != want {
						t.Fatalf("InternCells: cell %d (%q) = %d, want %d", i, c, got[i], want)
					}
				}
			}
		}
		m.check(t, d)
	})
}

// TestDictConcurrent interns, looks up and renders from several goroutines
// at once, on a fresh dictionary and on a restored one whose table is built
// by whichever call comes first; every goroutine must see the same Value
// for a string, and that Value must render back to it.
func TestDictConcurrent(t *testing.T) {
	restored, err := NewDictFromStrings([]string{"", "w1", "w2", "w3"})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Dict{"fresh": NewDict(), "restored": restored} {
		t.Run(name, func(t *testing.T) {
			const workers, words = 4, 3000
			got := make([][]Value, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					vals := make([]Value, words)
					var buf []byte
					for i := range vals {
						k := (i*7 + w*997) % words // each worker its own order
						buf = strconv.AppendInt(append(buf[:0], 'w'), int64(k), 10)
						if (i+w)%2 == 0 {
							vals[k] = d.InternBytes(buf)
						} else {
							vals[k] = d.Intern(string(buf))
						}
						if v, ok := d.Lookup(string(buf)); !ok || v != vals[k] {
							t.Errorf("Lookup(%s) = %d, %v, want %d", buf, v, ok, vals[k])
							return
						}
						if s, ok := d.StringInterned(vals[k]); !ok || s != string(buf) {
							t.Errorf("StringInterned(%d) = %q, want %s", vals[k], s, buf)
							return
						}
						_ = d.String(Value(i))
					}
					got[w] = vals
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for w := 1; w < workers; w++ {
				for k := range got[w] {
					if got[w][k] != got[0][k] {
						t.Fatalf("w%d: worker %d got %d, worker 0 got %d", k, w, got[w][k], got[0][k])
					}
				}
			}
			if d.Len() != words+1 {
				t.Fatalf("Len = %d, want %d", d.Len(), words+1)
			}
		})
	}
}

// TestInternCellsAllocs: InternCells of a batch the dictionary holds
// already does not allocate — the load path's counterpart of
// TestInternBytesAllocs, over several blocks.
func TestInternCellsAllocs(t *testing.T) {
	d := NewDict()
	var buf []byte
	offs := []int{0}
	for i := range 3*blockRows + 5 {
		buf = strconv.AppendInt(append(buf, 'c'), int64(i%150), 10)
		offs = append(offs, len(buf))
	}
	out := make([]Value, len(offs)-1)
	d.InternCells(buf, offs, out)
	if n := testing.AllocsPerRun(100, func() { d.InternCells(buf, offs, out) }); n != 0 {
		t.Fatalf("InternCells of interned values: %.0f allocs, want 0", n)
	}
}

// TestDictInternCellsConcurrent runs a batch intern beside goroutines
// that Intern, Lookup and render (StringInterned) the same words, on a
// fresh dictionary and on a restored one whose table is built by whichever
// call comes first: every caller must see one Value per word, rendering
// back to it, and the batch's Values must be the per-word ones.
func TestDictInternCellsConcurrent(t *testing.T) {
	restored, err := NewDictFromStrings([]string{"", "w1", "w2", "w3"})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Dict{"fresh": NewDict(), "restored": restored} {
		t.Run(name, func(t *testing.T) {
			const words, workers = 4000, 3
			word := func(k int) []byte { return strconv.AppendInt([]byte{'w'}, int64(k), 10) }
			var buf []byte
			offs := []int{0}
			for i := range 2 * words {
				buf = append(buf, word((i*13)%words)...)
				offs = append(offs, len(buf))
			}
			batch := make([]Value, len(offs)-1)
			got := make([][]Value, workers)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.InternCells(buf, offs, batch)
			}()
			for w := range workers {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					vals := make([]Value, words)
					for i := range vals {
						k := (i*7 + w*997) % words
						s := string(word(k))
						if w == 0 {
							vals[k] = d.Intern(s)
						} else if v, ok := d.Lookup(s); ok {
							vals[k] = v
						} else {
							vals[k] = d.Intern(s)
						}
						if got, ok := d.StringInterned(vals[k]); !ok || got != s {
							t.Errorf("StringInterned(%d) = %q, want %s", vals[k], got, s)
							return
						}
						_ = d.String(Value(i))
					}
					got[w] = vals
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i, v := range batch {
				k := (i * 13) % words
				for w := range workers {
					if got[w][k] != v {
						t.Fatalf("w%d: batch cell %d got %d, worker %d got %d", k, i, v, w, got[w][k])
					}
				}
			}
		})
	}
}

// TestInternBytesAllocs: InternBytes of a value already in the dictionary
// does not allocate.
func TestInternBytesAllocs(t *testing.T) {
	d := NewDict()
	b := []byte("cell")
	d.InternBytes(b)
	if n := testing.AllocsPerRun(100, func() { d.InternBytes(b) }); n != 0 {
		t.Fatalf("InternBytes of an interned value: %.0f allocs, want 0", n)
	}
}

// TestDictRenderDuringGrowth reads without locks while one writer interns
// past several doublings of the value table, on a fresh dictionary and on a
// restored one. A reader that has seen count n must find every value below
// n rendering its own string — the newest one above all, whose publication
// races the writer — and a value at n either "#n" or, once filled, its own
// string; never another value's string.
func TestDictRenderDuringGrowth(t *testing.T) {
	want := func(v Value) string {
		if v == 0 {
			return ""
		}
		return "s" + strconv.Itoa(int(v))
	}
	restored, err := NewDictFromStrings([]string{want(0), want(1), want(2), want(3)})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Dict{"fresh": NewDict(), "restored": restored} {
		t.Run(name, func(t *testing.T) {
			const values, readers = 1 << 14, 3
			stop := make(chan struct{})
			var wg, ready sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				ready.Add(1)
				go func(r int) {
					defer wg.Done()
					ready.Done()
					check := func(v Value) bool {
						s, ok := d.StringInterned(v)
						if got := d.String(v); !ok || s != want(v) || got != want(v) {
							t.Errorf("value %d renders %q (StringInterned %q, %v), want %q", v, got, s, ok, want(v))
							return false
						}
						return true
					}
					for i := r; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						n := Value(d.Len())
						if !check(n-1) || !check(Value(i*7919)%n) {
							return
						}
						if got := d.String(n); got != "#"+strconv.Itoa(int(n)) && got != want(n) {
							t.Errorf("value %d at the count renders %q", n, got)
							return
						}
					}
				}(r)
			}
			ready.Wait()
			for v := Value(d.Len()); v < values; v++ {
				if got := d.Intern(want(v)); got != v {
					t.Errorf("Intern(%q) = %d, want %d", want(v), got, v)
					break
				}
			}
			close(stop)
			wg.Wait()
			if !t.Failed() && d.Len() != values {
				t.Fatalf("Len = %d, want %d", d.Len(), values)
			}
		})
	}
}
