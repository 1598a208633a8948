// Package snapshot defines the versioned binary container behind the
// library's persistent index snapshots: a flat sequence of checksummed
// sections whose numeric payloads are laid out so that a reader can view
// them in place — []int64 / []int32 / []uint32 slices aliasing the mapped
// file region, no decode copy — while strings are length-validated and
// copied out.
//
// # Layout
//
//	file    = header | section* | trailer
//	header  = magic "RNMSNAP1" (8) | version u32 | endian u32 | reserved u64
//	section = tag u32 | reserved u32 | payloadLen u64 | crc32c(payload) u64
//	          | payload | pad to 8
//	trailer = sectionCount u64 | fileLen u64 | magic "RNMSNAPE" (8)
//
// The header is 24 bytes and every payload is padded to a multiple of 8, so
// each section payload starts 8-aligned within the file; mmap regions are
// page-aligned, which makes every numeric array view correctly aligned.
// Scalars and array elements are written in the host's byte order
// (binary.NativeEndian) — the whole point is casting file bytes to in-memory
// slices — and the endian marker in the header rejects files written on a
// machine of the other sex with a typed error instead of garbage.
//
// # Validation contract
//
// Open (OpenFile/OpenBytes) validates the magic, version, endian marker,
// trailer, section framing and every section's per-section CRC-32C (Castagnoli — hardware-accelerated on amd64/arm64, the ext4/iSCSI polynomial) before returning.
// Reader primitives bounds-check every access and fail sticky with
// ErrCorrupt. All failure modes — truncation, bit flips, version bumps,
// structural nonsense — surface as typed errors wrapping ErrInvalid; the
// decoder never panics and never reads past the buffer (the fuzz target
// FuzzOpenSnapshot at the repository root enforces this).
//
// This package is deliberately schemaless: it knows bytes, sections and
// checksums. Domain layouts (relations, dictionaries, indexes, queries,
// whole catalogs) live with the packages that own those types.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"
)

// Format identity.
const (
	magic        = "RNMSNAP1"
	trailerMagic = "RNMSNAPE"
	// Version is the on-disk format version this build writes. Bump it on
	// any layout change. Readers accept MinVersion through Version — the
	// domain decoders ask Reader.Version which layout they are reading — and
	// reject every other version with ErrVersion, so an older build refuses
	// a newer file instead of misreading it.
	Version uint32 = 2
	// MinVersion is the oldest format version this build still reads.
	MinVersion uint32 = 1
	// endianMark reads back as itself only on a host with the writer's byte
	// order; the mirrored value means "other endianness", a typed error.
	endianMark uint32 = 0x0A0B0C0D

	headerLen        = 24
	sectionHeaderLen = 24
	trailerLen       = 24
)

// Typed errors. Every decode failure wraps ErrInvalid, so callers can test
// the whole family with one errors.Is; the finer sentinels distinguish the
// failure for diagnostics and tests.
var (
	// ErrInvalid is the base error of every snapshot decode failure.
	ErrInvalid = errors.New("snapshot: invalid or corrupt snapshot")
	// ErrBadMagic: the file does not start with the snapshot magic.
	ErrBadMagic = fmt.Errorf("%w: bad magic", ErrInvalid)
	// ErrVersion: the format version is not one this build reads.
	ErrVersion = fmt.Errorf("%w: unsupported format version", ErrInvalid)
	// ErrEndian: the file was written on a host of the other byte order.
	ErrEndian = fmt.Errorf("%w: foreign byte order", ErrInvalid)
	// ErrTruncated: the file ends before its framing says it should.
	ErrTruncated = fmt.Errorf("%w: truncated", ErrInvalid)
	// ErrChecksum: a section's payload does not match its CRC-32C.
	ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrInvalid)
	// ErrCorrupt: structurally invalid content (bad lengths, bad counts,
	// out-of-range references) inside an otherwise well-framed file.
	ErrCorrupt = fmt.Errorf("%w: corrupt content", ErrInvalid)
)

// Corruptf returns an ErrCorrupt-wrapping error with detail. Domain decoders
// (relation, access, the catalog layer) use it so that every structural
// complaint stays inside the typed-error family.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ---------------------------------------------------------------- writing

// Writer assembles a snapshot file section by section. Each section is
// buffered in memory until Close so its length and checksum can prefix the
// payload; Finish writes the trailer. Writers are single-goroutine.
type Writer struct {
	w        io.Writer
	off      uint64
	sections uint64
	err      error
	started  bool
}

// NewWriter starts a snapshot stream on w (the header is written lazily on
// the first section so that a constructor cannot fail).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(b)
	w.off += uint64(n)
	if err != nil {
		w.err = err
	}
}

func (w *Writer) header() {
	if w.started {
		return
	}
	w.started = true
	var h [headerLen]byte
	copy(h[:8], magic)
	binary.NativeEndian.PutUint32(h[8:], Version)
	binary.NativeEndian.PutUint32(h[12:], endianMark)
	w.write(h[:])
}

// Section starts a new section with the given tag; write the payload through
// the returned SectionWriter and Close it before starting the next section.
func (w *Writer) Section(tag uint32) *SectionWriter {
	return &SectionWriter{w: w, tag: tag}
}

// Finish writes the trailer and returns the first error of the stream.
func (w *Writer) Finish() error {
	w.header()
	var t [trailerLen]byte
	binary.NativeEndian.PutUint64(t[0:], w.sections)
	binary.NativeEndian.PutUint64(t[8:], w.off+trailerLen)
	copy(t[16:], trailerMagic)
	w.write(t[:])
	return w.err
}

// SectionWriter buffers one section's payload. The primitives mirror the
// Reader's and keep the payload 8-aligned after every field, which is what
// lets the reader hand out aligned zero-copy views.
type SectionWriter struct {
	w   *Writer
	tag uint32
	buf []byte
}

// pad8 pads the payload to a multiple of 8.
func (s *SectionWriter) pad8() {
	for len(s.buf)%8 != 0 {
		s.buf = append(s.buf, 0)
	}
}

// U64 appends one unsigned 64-bit scalar.
func (s *SectionWriter) U64(v uint64) {
	s.buf = binary.NativeEndian.AppendUint64(s.buf, v)
}

// I64 appends one signed 64-bit scalar.
func (s *SectionWriter) I64(v int64) { s.U64(uint64(v)) }

// Str appends a length-prefixed string, padded to 8.
func (s *SectionWriter) Str(v string) {
	s.U64(uint64(len(v)))
	s.buf = append(s.buf, v...)
	s.pad8()
}

// I64s appends a count-prefixed []int64 as raw host-order bytes.
func (s *SectionWriter) I64s(v []int64) {
	s.U64(uint64(len(v)))
	s.buf = append(s.buf, i64bytes(v)...)
}

// I32s appends a count-prefixed []int32 as raw host-order bytes, padded to 8.
func (s *SectionWriter) I32s(v []int32) {
	s.U64(uint64(len(v)))
	s.buf = append(s.buf, i32bytes(v)...)
	s.pad8()
}

// U32s appends a count-prefixed []uint32 as raw host-order bytes, padded to 8.
func (s *SectionWriter) U32s(v []uint32) {
	s.U64(uint64(len(v)))
	s.buf = append(s.buf, u32bytes(v)...)
	s.pad8()
}

// Close frames the buffered payload (tag, length, checksum) into the stream.
func (s *SectionWriter) Close() {
	w := s.w
	w.header()
	var h [sectionHeaderLen]byte
	binary.NativeEndian.PutUint32(h[0:], s.tag)
	binary.NativeEndian.PutUint64(h[8:], uint64(len(s.buf)))
	binary.NativeEndian.PutUint64(h[16:], uint64(crc32.Checksum(s.buf, crcTable)))
	w.write(h[:])
	w.write(s.buf)
	if pad := (8 - len(s.buf)%8) % 8; pad > 0 {
		w.write(make([]byte, pad))
	}
	w.sections++
}

// ---------------------------------------------------------------- reading

// Section is one checksummed region of an open snapshot. Payload aliases the
// file mapping: it is valid until the File is closed and must not be written.
type Section struct {
	Tag     uint32
	payload []byte
	version uint32
}

// Reader returns a cursor over the section's payload.
func (s *Section) Reader() *Reader { return &Reader{b: s.payload, version: s.version} }

// File is an open, frame-validated snapshot: the backing buffer (mmap or
// aligned heap copy) plus its section table. Close releases the mapping;
// every zero-copy view handed out by section readers dangles afterwards, so
// a File must outlive all structures restored from it.
type File struct {
	data     []byte
	sections []Section
	close    func() error
}

// Sections returns the file's sections in on-disk order.
func (f *File) Sections() []Section { return f.sections }

// Close releases the backing mapping (or buffer). Idempotent.
func (f *File) Close() error {
	c := f.close
	f.close = nil
	f.data = nil
	f.sections = nil
	if c != nil {
		return c()
	}
	return nil
}

// OpenFile maps the snapshot at path read-only and validates its framing and
// every section checksum. On unix the numeric payloads alias the mapping
// (zero copy); elsewhere the file is read into an aligned buffer.
func OpenFile(path string) (*File, error) {
	data, closer, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	f, err := open(data, closer)
	if err != nil {
		closer()
		return nil, err
	}
	return f, nil
}

// OpenBytes validates a snapshot held in memory. The bytes are copied into
// an 8-aligned buffer first (arbitrary input alignment would break the
// zero-copy views), so b may be reused by the caller. This is the entry
// point the fuzz target drives.
func OpenBytes(b []byte) (*File, error) {
	return open(alignedCopy(b), nil)
}

// alignedCopy copies b into a fresh 8-byte-aligned buffer.
func alignedCopy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	words := make([]uint64, (len(b)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(b))
	copy(out, b)
	return out
}

func open(data []byte, closer func() error) (*File, error) {
	if len(data) < headerLen+trailerLen {
		return nil, ErrTruncated
	}
	if string(data[:8]) != magic {
		return nil, ErrBadMagic
	}
	version := binary.NativeEndian.Uint32(data[8:])
	if version < MinVersion || version > Version {
		// Distinguish the mirrored endian marker from a genuine future
		// version: check endianness first so the error names the real cause.
		if em := binary.NativeEndian.Uint32(data[12:]); em != endianMark {
			return nil, ErrEndian
		}
		return nil, fmt.Errorf("%w: got %d, this build reads %d to %d", ErrVersion, version, MinVersion, Version)
	}
	if em := binary.NativeEndian.Uint32(data[12:]); em != endianMark {
		return nil, ErrEndian
	}
	trailer := data[len(data)-trailerLen:]
	if string(trailer[16:]) != trailerMagic {
		return nil, ErrTruncated
	}
	if binary.NativeEndian.Uint64(trailer[8:]) != uint64(len(data)) {
		return nil, ErrTruncated
	}
	wantSections := binary.NativeEndian.Uint64(trailer[0:])

	f := &File{data: data, close: closer}
	end := uint64(len(data) - trailerLen)
	pos := uint64(headerLen)
	for pos < end {
		if end-pos < sectionHeaderLen {
			return nil, ErrTruncated
		}
		tag := binary.NativeEndian.Uint32(data[pos:])
		plen := binary.NativeEndian.Uint64(data[pos+8:])
		crc := binary.NativeEndian.Uint64(data[pos+16:])
		pos += sectionHeaderLen
		if plen > end-pos {
			return nil, ErrTruncated
		}
		payload := data[pos : pos+plen : pos+plen]
		if uint64(crc32.Checksum(payload, crcTable)) != crc {
			return nil, fmt.Errorf("%w: section %d (tag %d)", ErrChecksum, len(f.sections), tag)
		}
		f.sections = append(f.sections, Section{Tag: tag, payload: payload, version: version})
		pos += plen
		pos += (8 - pos%8) % 8
	}
	if uint64(len(f.sections)) != wantSections {
		return nil, fmt.Errorf("%w: trailer records %d sections, file holds %d", ErrCorrupt, wantSections, len(f.sections))
	}
	return f, nil
}

// Reader is a bounds-checked cursor over one section payload. On the first
// out-of-range access it goes sticky-invalid: every later read returns zero
// values and Err reports the failure. Alignment is an invariant, not a
// check: all primitives consume multiples of 8 bytes.
type Reader struct {
	b       []byte
	off     int
	err     error
	version uint32
}

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Version returns the format version of the file the payload belongs to.
func (r *Reader) Version() uint32 { return r.version }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = Corruptf(format, args...)
	}
}

// Remaining returns the unread payload bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// AtEnd reports whether the payload was consumed exactly.
func (r *Reader) AtEnd() bool { return r.err == nil && r.off == len(r.b) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("read of %d bytes at offset %d exceeds payload of %d", n, r.off, len(r.b))
		return nil
	}
	b := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *Reader) skipPad() {
	if pad := (8 - r.off%8) % 8; pad > 0 {
		r.take(pad)
	}
}

// U64 reads one unsigned 64-bit scalar.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.NativeEndian.Uint64(b)
}

// I64 reads one signed 64-bit scalar.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// count reads an element count and verifies width*count fits the remainder.
func (r *Reader) count(width int, what string) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(math.MaxInt64)/uint64(width) || int64(n)*int64(width) > int64(r.Remaining()) {
		r.fail("%s count %d exceeds remaining payload %d", what, n, r.Remaining())
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string (copied out of the buffer).
func (r *Reader) Str() string {
	n := r.count(1, "string")
	b := r.take(n)
	r.skipPad()
	if b == nil {
		return ""
	}
	return string(b)
}

// I64s reads a count-prefixed []int64 viewing the payload in place.
func (r *Reader) I64s() []int64 {
	n := r.count(8, "int64 array")
	b := r.take(8 * n)
	if b == nil || n == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
}

// I32s reads a count-prefixed []int32 viewing the payload in place.
func (r *Reader) I32s() []int32 {
	n := r.count(4, "int32 array")
	b := r.take(4 * n)
	r.skipPad()
	if b == nil || n == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

// U32s reads a count-prefixed []uint32 viewing the payload in place.
func (r *Reader) U32s() []uint32 {
	n := r.count(4, "uint32 array")
	b := r.take(4 * n)
	r.skipPad()
	if b == nil || n == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

// ---------------------------------------------------------------- casts

func i64bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

func i32bytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

func u32bytes(v []uint32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// WriteFileAtomic writes a complete snapshot to path via a temp file in the
// same directory and an atomic rename, so a crash mid-save can never leave a
// half-written snapshot where a boot scan would find it.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp files are 0600; snapshots are ordinary artifacts — give
	// them conventional permissions before they appear under path.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
