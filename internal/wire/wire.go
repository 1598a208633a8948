// Package wire is the opt-in binary response format for the serving tier.
// Clients ask for it with "Accept: application/x-renum-bin" on /batch, /page
// and cursor draws; the server answers with a fixed 40-byte header,
// little-endian length-prefixed cells in row-major order, and a trailing
// CRC-32C (Castagnoli — the same checksum discipline internal/snapshot uses
// for on-disk sections). Compared to the JSON path it carries the same
// strings with no quoting, no escaping and no per-request encoder state, so
// both sides can stay allocation-free.
//
// Framing (all integers little-endian):
//
//	offset  size  field
//	     0     8  magic "RNMWIRE1"
//	     8     4  version (currently 1)
//	    12     4  flags (bit 0: FlagDone — cursor exhausted)
//	    16     4  arity (cells per row)
//	    20     4  reserved, must be zero
//	    24     8  rows
//	    32     8  aux (page responses: the echoed offset; otherwise 0)
//	    40     …  rows×arity cells, each: u32 length + raw bytes
//	  end-4     4  CRC-32C over everything before it
//
// Versioning policy: the magic pins the family, the version field the layout.
// Decoders reject any version they do not know (no silent best-effort reads);
// layout changes bump the version, and flag bits may be added without a bump
// because unknown flags are ignored by decoders.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// ContentType is the negotiated media type. A request whose Accept header
// lists it gets a binary response; everything else stays on JSON.
const ContentType = "application/x-renum-bin"

// Version is the layout version this package reads and writes.
const Version = 1

// FlagDone marks an exhausted cursor: the draw in this message is the last
// one and the server has closed the cursor.
const FlagDone = 1 << 0

const (
	headerSize = 40
	crcSize    = 4
)

var magic = [8]byte{'R', 'N', 'M', 'W', 'I', 'R', 'E', '1'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrInvalid is the root of every decode error this package returns.
var ErrInvalid = fmt.Errorf("wire: invalid message")

// Header is the fixed-size frame prefix.
type Header struct {
	Flags uint32
	Arity uint32
	Rows  uint64
	Aux   uint64
}

// Done reports whether FlagDone is set.
func (h Header) Done() bool { return h.Flags&FlagDone != 0 }

// AppendHeader appends the 40-byte header for h to dst and returns the
// extended slice. The caller appends Rows×Arity cells with AppendCell and
// seals the message with Finish.
func AppendHeader(dst []byte, h Header) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, Version)
	dst = binary.LittleEndian.AppendUint32(dst, h.Flags)
	dst = binary.LittleEndian.AppendUint32(dst, h.Arity)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst = binary.LittleEndian.AppendUint64(dst, h.Rows)
	dst = binary.LittleEndian.AppendUint64(dst, h.Aux)
	return dst
}

// AppendCell appends one length-prefixed cell.
func AppendCell(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendCellBytes is AppendCell for raw bytes (callers rendering cell
// content into a scratch buffer avoid a string conversion).
func AppendCellBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// Finish seals the message that started at dst[start:] by appending the
// CRC-32C over it, and returns the extended slice. start lets one buffer
// carry unrelated bytes (an HTTP head) before the frame.
func Finish(dst []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// Parse is the convenience form of ParseFunc for tests and tools: it decodes
// a complete message and materializes every cell as a string, one slice per
// row. Nothing on a serving path calls it — the router reads rows in place
// through ParseFunc.
func Parse(data []byte) (Header, [][]string, error) {
	var rows [][]string
	h, err := ParseFunc(data, func(row, col int, val []byte) error {
		if col == 0 {
			rows = append(rows, make([]string, 0, 4))
		}
		rows[row] = append(rows[row], string(val))
		return nil
	})
	if err != nil {
		return Header{}, nil, err
	}
	return h, rows, nil
}

// ParseFunc decodes a complete message and invokes cell for every cell in
// row-major order. val aliases data — copy it to retain it. A non-nil error
// from cell aborts the walk and is returned verbatim.
func ParseFunc(data []byte, cell func(row, col int, val []byte) error) (Header, error) {
	if len(data) < headerSize+crcSize {
		return Header{}, fmt.Errorf("%w: %d bytes is shorter than an empty frame", ErrInvalid, len(data))
	}
	if string(data[:8]) != string(magic[:]) {
		return Header{}, fmt.Errorf("%w: bad magic", ErrInvalid)
	}
	body, crcBytes := data[:len(data)-crcSize], data[len(data)-crcSize:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(crcBytes); got != want {
		return Header{}, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrInvalid, got, want)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		return Header{}, fmt.Errorf("%w: unsupported version %d (this decoder reads %d)", ErrInvalid, v, Version)
	}
	if r := binary.LittleEndian.Uint32(data[20:]); r != 0 {
		return Header{}, fmt.Errorf("%w: reserved field is %d, want 0", ErrInvalid, r)
	}
	h := Header{
		Flags: binary.LittleEndian.Uint32(data[12:]),
		Arity: binary.LittleEndian.Uint32(data[16:]),
		Rows:  binary.LittleEndian.Uint64(data[24:]),
		Aux:   binary.LittleEndian.Uint64(data[32:]),
	}
	cells, rest := h.Rows*uint64(h.Arity), body[headerSize:]
	// The checksum already passed, so lengths are what the encoder wrote;
	// these checks catch encoder bugs and hand-crafted frames, not line noise.
	for i := uint64(0); i < cells; i++ {
		if len(rest) < 4 {
			return Header{}, fmt.Errorf("%w: truncated cell %d of %d", ErrInvalid, i, cells)
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(n) {
			return Header{}, fmt.Errorf("%w: cell %d claims %d bytes, %d remain", ErrInvalid, i, n, len(rest))
		}
		if cell != nil {
			if err := cell(int(i/uint64(h.Arity)), int(i%uint64(h.Arity)), rest[:n]); err != nil {
				return Header{}, err
			}
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return Header{}, fmt.Errorf("%w: %d trailing bytes after %d cells", ErrInvalid, len(rest), cells)
	}
	return h, nil
}
