package renum

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/dynaccess"
	"repro/internal/mcucq"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/snapshot"
)

// ErrSnapshotInvalid is the typed-error family of snapshot decoding: every
// failure OpenSnapshot can report about the file's content — bad magic,
// unsupported format version, foreign byte order, truncation, checksum
// mismatch, structural corruption — wraps it. Test with errors.Is; the
// decoder never panics on hostile input (pinned by FuzzOpenSnapshot).
var ErrSnapshotInvalid = snapshot.ErrInvalid

// SnapshotVersion is the on-disk format version this build writes. It also
// reads version 1, the layout before bucket-ordered nodes, and refuses every
// other version. See the README's versioning policy: the format changes by
// bumping this number, never by silently reinterpreting old files.
const SnapshotVersion = snapshot.Version

// Catalog section tags.
const (
	secMeta     = 1
	secDict     = 2
	secRelation = 3
	secEntry    = 4
)

// Backend kinds inside an entry section.
const (
	entryKindCQ      = 1
	entryKindUCQ     = 2
	entryKindDynamic = 3
)

// CatalogEntry pairs one served query with its prepared handle: the unit a
// snapshot stores. Q is the query the handle was compiled from (used to
// recompile after data reloads and for metadata); H serves the probes.
type CatalogEntry struct {
	Name string
	Q    Query
	H    *Handle
}

// queryCarrier exposes the query a backend was actually compiled from —
// after planning, possibly a body reordering of the caller's CQ.
// WriteSnapshot prefers it over the caller-supplied Q, so a snapshot
// records the *chosen* tree and a restored generation probes (and, after a
// data reload, recompiles) on exactly that tree. A union's saved indexes are
// in its recorded disjunct order, and restore pairs them with that order.
type queryCarrier interface {
	compiledQuery() Query
}

func (b cqBackend) compiledQuery() Query { return b.c.Query }
func (b uaBackend) compiledQuery() Query { return b.u }

// snapshotter is the save capability of a Handle backend: static CQ and
// UCQ backends persist their compiled indexes; the dynamic backend
// persists its *base contents* (arrival-ordered tuples plus tombstones)
// and is rebuilt from them on restore — cheaper than serializing Fenwick
// trees and bucket caches, and exactly reproduces the live enumeration
// order. Restored backends implement it too, so a booted-from-snapshot
// server can save again. CapSnapshot reports this interface.
type snapshotter interface {
	marshalSnapshotEntry(s *snapshot.SectionWriter)
}

// WriteSnapshot writes a complete catalog — dictionary, base relations, and
// every entry's persistable form (compiled index for static entries, base
// contents for dynamic ones) — to w in the versioned binary snapshot
// format. Every entry's handle must have CapSnapshot and a non-nil Q.
//
// The writer must not race with mutations of db (admin writes); callers
// serialize saves the same way they serialize loads.
func WriteSnapshot(w io.Writer, db *Database, gen uint64, entries []CatalogEntry) error {
	for _, e := range entries {
		if e.H == nil || e.Q == nil {
			return fmt.Errorf("renum: snapshot entry %q: missing handle or query", e.Name)
		}
		if _, ok := e.H.b.(snapshotter); !ok {
			return fmt.Errorf("renum: snapshot entry %q: %w (kind %s)", e.Name, ErrUnsupported, e.H.Kind())
		}
	}
	enc := snapshot.NewWriter(w)

	names := db.Names()
	s := enc.Section(secMeta)
	s.U64(gen)
	s.U64(uint64(len(names)))
	s.U64(uint64(len(entries)))
	s.Close()

	s = enc.Section(secDict)
	relation.MarshalDict(s, db.Dict())
	s.Close()

	for _, name := range names {
		rel, err := db.Relation(name)
		if err != nil {
			return err
		}
		s = enc.Section(secRelation)
		relation.MarshalRelation(s, rel)
		s.Close()
	}

	for _, e := range entries {
		s = enc.Section(secEntry)
		s.Str(e.Name)
		q := e.Q
		if qc, ok := e.H.b.(queryCarrier); ok {
			if cq := qc.compiledQuery(); cq != nil {
				q = cq
			}
		}
		query.MarshalQuery(s, q)
		e.H.b.(snapshotter).marshalSnapshotEntry(s)
		s.Close()
	}
	return enc.Finish()
}

// SaveSnapshot writes the catalog to path atomically (temp file + rename in
// the same directory), so an interrupted save never leaves a torn file where
// a boot scan would pick it up.
func SaveSnapshot(path string, db *Database, gen uint64, entries []CatalogEntry) error {
	return snapshot.WriteFileAtomic(path, func(w io.Writer) error {
		return WriteSnapshot(w, db, gen, entries)
	})
}

// Catalog is an open snapshot: the restored database (dictionary +
// relations) and one ready handle per saved entry, all backed by the mapped
// file. Close releases the mapping and invalidates every restored handle
// and relation — a Catalog must outlive all use of its entries, so
// long-lived consumers (the daemon) hold it for the process lifetime.
type Catalog struct {
	db      *Database
	gen     uint64
	entries []CatalogEntry
	f       *snapshot.File
}

// DB returns the restored database. Its relations are immutable
// (snapshot-backed); loading new tables registers fresh heap relations
// alongside them.
func (c *Catalog) DB() *Database { return c.db }

// Generation returns the registry generation recorded at save time.
// Daemons booting from the catalog continue numbering from it, so
// generations are monotonic across restarts.
func (c *Catalog) Generation() uint64 { return c.gen }

// Entries returns the restored entries in saved order.
func (c *Catalog) Entries() []CatalogEntry {
	return append([]CatalogEntry(nil), c.entries...)
}

// Close unmaps the snapshot. Every handle, relation and dictionary restored
// from this catalog becomes invalid. A handle Opened over DB() stays valid
// after Close: Open copies a snapshot-backed base's columns instead of
// borrowing them, so its index holds nothing of the mapping. Idempotent.
func (c *Catalog) Close() error {
	if c.f == nil {
		return nil
	}
	f := c.f
	c.f = nil
	return f.Close()
}

// OpenSnapshot maps the snapshot at path, validates it (framing, version,
// per-section checksums, structural invariants) and restores the catalog:
// cold start is O(open + validate) instead of O(preprocess) — numeric
// sections (columns, bucket tables, prefix sums, child-ID arrays) are zero-copy
// views of the mapping, string regions are validated and copied, and hash
// indexes (tuple membership, dictionary reverse lookup) hydrate lazily on
// first use.
//
// Options apply to the restored handles; WithWorkers sets their batched
// probe fan-out. Restored handles report their capabilities: a CQ entry
// serves everything but Explain (the compiled plan is not persisted), a UCQ
// entry matches its built form, and both keep CapSnapshot, so a restored
// catalog can be saved again.
func OpenSnapshot(path string, opts ...Option) (*Catalog, error) {
	f, err := snapshot.OpenFile(path)
	if err != nil {
		return nil, err
	}
	cat, err := restoreCatalog(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return cat, nil
}

// OpenSnapshotBytes is OpenSnapshot over an in-memory image (copied to an
// aligned buffer). It backs tests and the fuzz target; production boots use
// OpenSnapshot's file mapping.
func OpenSnapshotBytes(b []byte, opts ...Option) (*Catalog, error) {
	f, err := snapshot.OpenBytes(b)
	if err != nil {
		return nil, err
	}
	cat, err := restoreCatalog(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return cat, nil
}

func restoreCatalog(f *snapshot.File, opts []Option) (*Catalog, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	secs := f.Sections()
	if len(secs) < 2 || secs[0].Tag != secMeta || secs[1].Tag != secDict {
		return nil, snapshot.Corruptf("catalog: missing meta/dict sections")
	}
	mr := secs[0].Reader()
	gen := mr.U64()
	numRels := mr.U64()
	numEntries := mr.U64()
	if err := mr.Err(); err != nil {
		return nil, err
	}
	// Check each count individually before summing: crafted counts near
	// 2^64 would otherwise wrap the sum to len(secs) and index past the
	// section table.
	rest := uint64(len(secs) - 2)
	if numRels > rest || numEntries > rest || numRels+numEntries != rest {
		return nil, snapshot.Corruptf("catalog: meta records %d relations + %d entries, file holds %d sections", numRels, numEntries, rest)
	}

	dict, err := relation.UnmarshalDict(secs[1].Reader())
	if err != nil {
		return nil, err
	}
	db := relation.NewDatabaseWithDict(dict)
	cat := &Catalog{db: db, gen: gen, f: f}

	for i := uint64(0); i < numRels; i++ {
		sec := secs[2+i]
		if sec.Tag != secRelation {
			return nil, snapshot.Corruptf("catalog: section %d has tag %d, want relation", 2+i, sec.Tag)
		}
		rel, err := relation.UnmarshalRelation(sec.Reader())
		if err != nil {
			return nil, err
		}
		if db.Has(rel.Name()) {
			return nil, snapshot.Corruptf("catalog: duplicate relation %q", rel.Name())
		}
		db.Add(rel)
	}

	for i := uint64(0); i < numEntries; i++ {
		sec := secs[2+numRels+i]
		if sec.Tag != secEntry {
			return nil, snapshot.Corruptf("catalog: section %d has tag %d, want entry", 2+numRels+i, sec.Tag)
		}
		e, err := restoreEntry(sec.Reader(), cfg)
		if err != nil {
			return nil, err
		}
		cat.entries = append(cat.entries, e)
	}
	return cat, nil
}

func restoreEntry(r *snapshot.Reader, cfg config) (CatalogEntry, error) {
	name := r.Str()
	q, err := query.UnmarshalQuery(r)
	if err != nil {
		return CatalogEntry{}, err
	}
	kind := r.U64()
	if err := r.Err(); err != nil {
		return CatalogEntry{}, err
	}
	var h *Handle
	switch kind {
	case entryKindCQ:
		cq, ok := q.(*query.CQ)
		if !ok {
			return CatalogEntry{}, snapshot.Corruptf("entry %s: cq payload with a union query", name)
		}
		idx, err := access.UnmarshalIndex(r)
		if err != nil {
			return CatalogEntry{}, err
		}
		h = &Handle{b: cqBackend{c: cqenum.Restore(cq, idx)}, workers: cfg.workers}
	case entryKindUCQ:
		u, ok := q.(*query.UCQ)
		if !ok {
			return CatalogEntry{}, snapshot.Corruptf("entry %s: ucq payload with a non-union query", name)
		}
		n := r.U64()
		// Bound both counts against the payload before trusting them: an
		// index blob costs far more than 8 bytes, and RestoredIndexCount is
		// exponential in m (it would overflow past m≈62 and could not fit a
		// real file long before that).
		if len(u.Disjuncts) > 32 {
			return CatalogEntry{}, snapshot.Corruptf("entry %s: implausible %d-disjunct union", name, len(u.Disjuncts))
		}
		if n > uint64(r.Remaining()/8) {
			return CatalogEntry{}, snapshot.Corruptf("entry %s: index count %d exceeds payload", name, n)
		}
		if want := mcucq.RestoredIndexCount(len(u.Disjuncts)); n != uint64(want) {
			return CatalogEntry{}, snapshot.Corruptf("entry %s: %d indexes for a %d-disjunct union, want %d", name, n, len(u.Disjuncts), want)
		}
		indexes := make([]*access.Index, n)
		for i := range indexes {
			idx, err := access.UnmarshalIndex(r)
			if err != nil {
				return CatalogEntry{}, err
			}
			indexes[i] = idx
		}
		m, err := mcucq.Restore(u, indexes, cfg.workers)
		if err != nil {
			return CatalogEntry{}, snapshot.Corruptf("entry %s: %v", name, err)
		}
		h = &Handle{b: newUABackend(m, u), workers: cfg.workers}
	case entryKindDynamic:
		cq, ok := q.(*query.CQ)
		if !ok {
			return CatalogEntry{}, snapshot.Corruptf("entry %s: dynamic payload with a union query", name)
		}
		tables, err := dynaccess.UnmarshalBase(r)
		if err != nil {
			return CatalogEntry{}, err
		}
		idx, err := dynaccess.NewFromTables(cq, tables)
		if err != nil {
			return CatalogEntry{}, snapshot.Corruptf("entry %s: %v", name, err)
		}
		h = &Handle{b: daBackend{idx}, workers: cfg.workers}
	default:
		return CatalogEntry{}, snapshot.Corruptf("entry %s: unknown backend kind %d", name, kind)
	}
	if !r.AtEnd() {
		if err := r.Err(); err != nil {
			return CatalogEntry{}, err
		}
		return CatalogEntry{}, snapshot.Corruptf("entry %s: %d trailing bytes", name, r.Remaining())
	}
	return CatalogEntry{Name: name, Q: q, H: h}, nil
}

// ------------------------------------------------- backend save hooks

// marshalSnapshotEntry writes the CQ backend: kind tag + one index. The
// reduction and the plan record are not persisted, which is why a restored
// entry has nothing to Explain.
func (b cqBackend) marshalSnapshotEntry(s *snapshot.SectionWriter) {
	s.U64(entryKindCQ)
	b.c.Index.Marshal(s)
}

// marshalSnapshotEntry writes the dynamic backend: kind tag + the base
// tables (arrival order plus tombstones). The index structure itself is
// not serialized — NewFromTables reproduces it exactly on restore, and the
// tombstones guarantee even future revive positions match the live index.
func (b daBackend) marshalSnapshotEntry(s *snapshot.SectionWriter) {
	s.U64(entryKindDynamic)
	dynaccess.MarshalBase(s, b.Index)
}

// marshalSnapshotEntry writes the UCQ backend: kind tag + every disjunct and
// intersection index in the deterministic job order mcucq.Restore consumes.
func (b uaBackend) marshalSnapshotEntry(s *snapshot.SectionWriter) {
	s.U64(entryKindUCQ)
	indexes := b.m.Indexes()
	s.U64(uint64(len(indexes)))
	for _, idx := range indexes {
		idx.Marshal(s)
	}
}

// IsSnapshotInvalid reports whether err belongs to the snapshot decode
// error family (errors.Is against ErrSnapshotInvalid).
func IsSnapshotInvalid(err error) bool { return errors.Is(err, ErrSnapshotInvalid) }
