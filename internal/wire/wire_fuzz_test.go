package wire

import (
	"errors"
	"testing"
)

// cell is one decoded cell with its place in the frame.
type cell struct {
	row, col int
	val      string
}

// decodeBoth decodes data with Parse and with ParseFunc and fails the test
// unless both accept with the same header and cells, or both refuse.
func decodeBoth(t *testing.T, data []byte) (Header, []cell, error) {
	t.Helper()
	h, rows, err := Parse(data)
	var viaFunc []cell
	hf, errf := ParseFunc(data, func(row, col int, val []byte) error {
		viaFunc = append(viaFunc, cell{row, col, string(val)})
		return nil
	})
	if (err == nil) != (errf == nil) {
		t.Fatalf("Parse err %v, ParseFunc err %v", err, errf)
	}
	if err != nil {
		if !errors.Is(err, ErrInvalid) || !errors.Is(errf, ErrInvalid) {
			t.Fatalf("refusals %v / %v are not ErrInvalid", err, errf)
		}
		return Header{}, nil, err
	}
	if h != hf {
		t.Fatalf("headers: Parse %+v, ParseFunc %+v", h, hf)
	}
	var viaParse []cell
	for r, row := range rows {
		for c, v := range row {
			viaParse = append(viaParse, cell{r, c, v})
		}
	}
	if len(viaParse) != len(viaFunc) {
		t.Fatalf("Parse has %d cells, ParseFunc %d", len(viaParse), len(viaFunc))
	}
	for i := range viaParse {
		if viaParse[i] != viaFunc[i] {
			t.Fatalf("cell %d: Parse %+v, ParseFunc %+v", i, viaParse[i], viaFunc[i])
		}
	}
	return h, viaFunc, nil
}

// FuzzWireDecode makes both sides of the format adversarial. Arbitrary
// bytes never panic the decoder, and Parse and ParseFunc agree on them. A
// frame the encoder builds from the fuzzed bytes — cut into cells, arity
// and header fields fuzzed too — decodes to exactly what was encoded, and
// the same frame with any one bit flipped is refused.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint32(0), uint64(0), uint32(0))
	f.Add([]byte("\x02ab\x01c\x00\x03def"), uint8(1), uint32(FlagDone), uint64(40), uint32(77))
	f.Add(encode(Header{Arity: 2, Rows: 2, Aux: 7}, [][]string{{"ab", "c"}, {"", "def"}}), uint8(2), uint32(1<<7), uint64(1), uint32(300))
	f.Add([]byte("RNMWIRE1 not really a frame"), uint8(3), uint32(0), uint64(0), uint32(5))

	f.Fuzz(func(t *testing.T, data []byte, arity uint8, flags uint32, aux uint64, bit uint32) {
		decodeBoth(t, data)

		// Cut data into cells: a length byte (mod 8), then that many bytes.
		var cells []string
		for rest := data; len(rest) > 0; {
			n := min(int(rest[0]%8), len(rest)-1)
			cells = append(cells, string(rest[1:1+n]))
			rest = rest[1+n:]
		}
		want := Header{Flags: flags, Arity: uint32(arity%4) + 1, Aux: aux}
		want.Rows = uint64(len(cells)) / uint64(want.Arity)
		cells = cells[:want.Rows*uint64(want.Arity)]
		frame := AppendHeader(nil, want)
		for _, c := range cells {
			frame = AppendCell(frame, c)
		}
		frame = Finish(frame, 0)

		h, got, err := decodeBoth(t, frame)
		if err != nil {
			t.Fatalf("encoded frame refused: %v", err)
		}
		if h != want || len(got) != len(cells) {
			t.Fatalf("round trip: header %+v with %d cells, want %+v with %d", h, len(got), want, len(cells))
		}
		for i, c := range got {
			if c.val != cells[i] || c.row != i/int(want.Arity) || c.col != i%int(want.Arity) {
				t.Fatalf("cell %d: got %+v, want %q at (%d,%d)", i, c, cells[i], i/int(want.Arity), i%int(want.Arity))
			}
		}

		at := int(bit % uint32(8*len(frame)))
		frame[at/8] ^= 1 << (at % 8)
		if _, _, err := decodeBoth(t, frame); err == nil {
			t.Fatalf("frame with bit %d flipped accepted", at)
		}
	})
}
