package server

import (
	"bytes"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/wire"
)

// perCellRows renders rows the way the encoders did before cells were
// resolved a block at a time: each cell on its own, through
// appendCellString.
func perCellRows(dst []byte, dict *renum.Dict, rows []renum.Tuple) []byte {
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendCellString(dst, dict, v)
		}
		dst = append(dst, ']')
	}
	return dst
}

// perCellWire frames rows with every cell resolved on its own, through
// appendWireCell.
func perCellWire(dict *renum.Dict, rows []renum.Tuple, arity int, flags uint32, aux uint64) []byte {
	dst := wire.AppendHeader(nil, wire.Header{Flags: flags, Arity: uint32(arity), Rows: uint64(len(rows)), Aux: aux})
	for _, row := range rows {
		for _, v := range row {
			dst = appendWireCell(dst, dict, v)
		}
	}
	return wire.Finish(dst, 0)
}

// FuzzAnswerBodies renders random rows through the block path the handlers
// take (appendAnswersRows, appendAccessBody, appendWireRows) and through the
// per-cell path, and requires the same bytes for every JSON closer and
// every wire frame. Rows run from 1 to 70 cells, so some are wider than a
// block and some fill one exactly; cells draw from strings encoding/json
// escapes, strings taken from the input, and values outside the dictionary
// on both sides, which render as "#N".
func FuzzAnswerBodies(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, 256} {
		for _, arity := range []int{1, 2, 3, 32, 63, 64, 65, 70} {
			f.Add(uint8(arity-1), uint16(n), int64(n*71+arity), []byte("cell\x00\"q\\<&>\x00\x01\x1f\xff\xfe\x00\u2028\u2029"))
		}
	}
	f.Fuzz(func(t *testing.T, arity uint8, nrows uint16, seed int64, strs []byte) {
		a, n := 1+int(arity)%70, int(nrows)%257
		dict := renum.NewDatabase().Dict()
		for _, s := range hostileStrings {
			dict.Intern(s)
		}
		for _, s := range bytes.Split(strs, []byte{0}) {
			dict.InternBytes(s)
		}
		size := dict.Len()
		rng := rand.New(rand.NewSource(seed))
		rows := make([]renum.Tuple, n)
		for i := range rows {
			rows[i] = make(renum.Tuple, a)
			for j := range rows[i] {
				switch rng.Intn(10) {
				case 0:
					rows[i][j] = -1 - renum.Value(rng.Int63n(1<<40))
				case 1:
					rows[i][j] = renum.Value(size + rng.Intn(3))
				default:
					rows[i][j] = renum.Value(rng.Intn(size))
				}
			}
		}

		open := perCellRows(openAnswersBody(nil), dict, rows)
		for name, closer := range map[string]func([]byte) []byte{
			"answers":             closeAnswersBody,
			"offset":              func(b []byte) []byte { return closeAnswersOffsetBody(b, seed) },
			"done":                func(b []byte) []byte { return closeAnswersDoneBody(b, true) },
			"not done":            func(b []byte) []byte { return closeAnswersDoneBody(b, false) },
			"with_replacement":    func(b []byte) []byte { return closeAnswersWithReplacementBody(b, true) },
			"without_replacement": func(b []byte) []byte { return closeAnswersWithReplacementBody(b, false) },
		} {
			want := closer(append([]byte(nil), open...))
			if got := closer(appendAnswersRows(nil, dict, rows)); !bytes.Equal(got, want) {
				t.Fatalf("%s body, %d rows of %d:\n got %q\nwant %q", name, n, a, got, want)
			}
		}
		if got, want := appendAnswersBody(nil, dict, rows), closeAnswersBody(open); !bytes.Equal(got, want) {
			t.Fatalf("answers body, %d rows of %d:\n got %q\nwant %q", n, a, got, want)
		}
		for j, row := range rows[:min(n, 3)] {
			want := append(perCellRows([]byte(`{"answer":`), dict, rows[j:j+1]), `,"j":7}`+"\n"...)
			if got := appendAccessBody(nil, dict, 7, row); !bytes.Equal(got, want) {
				t.Fatalf("access body of %d cells:\n got %q\nwant %q", a, got, want)
			}
		}
		for _, fr := range []struct {
			flags uint32
			aux   uint64
		}{{0, 0}, {0, uint64(seed)}, {wire.FlagDone, 0}} {
			want := perCellWire(dict, rows, a, fr.flags, fr.aux)
			if got := appendWireRows(nil, dict, rows, a, fr.flags, fr.aux); !bytes.Equal(got, want) {
				t.Fatalf("wire frame (flags %d, aux %d), %d rows of %d:\n got %q\nwant %q", fr.flags, fr.aux, n, a, got, want)
			}
		}
	})
}

// TestAnswerBodyAllocs pins the encoders' allocation count: a 64-row /batch
// body, JSON and wire, and a 256-row /enum/next body rendered into a warmed
// enc allocate nothing.
func TestAnswerBodyAllocs(t *testing.T) {
	dict := renum.NewDatabase().Dict()
	rows := make([]renum.Tuple, 256)
	for i := range rows {
		rows[i] = renum.Tuple{dict.Intern("a" + string(rune('a'+i%26))), dict.Intern(`q"` + string(rune('0'+i%10))), renum.Value(-i)}
	}
	e := getEnc()
	defer e.release()
	for _, tc := range []struct {
		name   string
		render func() []byte
	}{
		{"batch", func() []byte { return appendAnswersBody(e.buf[:0], dict, rows[:64]) }},
		{"batch_wire", func() []byte { return appendWireRows(e.buf[:0], dict, rows[:64], 3, 0, 0) }},
		{"enum_next", func() []byte { return closeAnswersDoneBody(appendAnswersRows(e.buf[:0], dict, rows), false) }},
	} {
		e.buf = tc.render() // warm the buffer to this body's size
		if n := testing.AllocsPerRun(100, func() { e.buf = tc.render() }); n != 0 {
			t.Errorf("%s: %.1f allocs per body, want 0", tc.name, n)
		}
	}
}
