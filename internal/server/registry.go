package server

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/load"
)

// Entry is one served query: a name and the capability-based handle serving
// it. Entries are immutable once published — a rebuild produces fresh
// entries and swaps the whole snapshot, it never mutates a live one — so
// probe handlers read them without locks.
//
// There is deliberately no backend dispatch here: every probe goes through
// the Handle's shared surface, and kind-specific behavior (inverted access,
// updates, cursors) is discovered via capabilities in the handlers. A new
// backend kind added to renum.Open is served without touching this file.
type Entry struct {
	// Name is the head predicate the entry is served under.
	Name string
	// Text renders the query for /v1/{query} metadata responses.
	Text string
	// H is the prepared handle; all probes dispatch through it.
	H *renum.Handle
	// src is the parsed query, kept so Rebuild can recompile the entry
	// against the current database without reparsing.
	src load.Query

	// qm holds the per-operation probe histograms, resolved when the entry
	// is built; local.Probe records through them with no lookup per request.
	qm *probeOps
}

// Kind names the handle's backend family (diagnostics/metadata only).
func (e *Entry) Kind() string { return string(e.H.Kind()) }

// Count returns the entry's current answer count.
func (e *Entry) Count() int64 { return e.H.Count() }

// Head returns the entry's output variable order.
func (e *Entry) Head() []string { return e.H.Head() }

// snapshot is one immutable generation of the registry: a database plus the
// entries compiled against it. Readers grab the current snapshot with one
// atomic load and keep using it even if a writer swaps in a successor.
type snapshot struct {
	db      *renum.Database
	entries map[string]*Entry
	gen     uint64
}

// Registry owns the served datasets and queries. Reads (Lookup, Snapshot)
// are lock-free: they atomically load the current snapshot. Writes
// (LoadTable, Register, Rebuild) serialize on a mutex, build a fresh
// snapshot aside, and publish it with one atomic swap — in-flight requests
// on the old snapshot finish undisturbed, new requests see the new
// generation. This is the concurrency contract the hammer tests enforce.
type Registry struct {
	mu   sync.Mutex // serializes writers
	snap atomic.Pointer[snapshot]

	workers int

	// wal is the registry's write-ahead log state (see wal.go). Its zero
	// value means no WAL is attached and updates are applied unlogged.
	wal walState

	// m is the registry's instruments, created with it; server.New serves
	// m.reg at /metrics.
	m registryMetrics

	// sliceIdx/sliceOf configure shard-daemon mode (SetShardSlice): every
	// entry serves only slice sliceIdx of a sliceOf-way partition of its
	// answers. sliceOf == 0 means the registry serves full answer sets.
	sliceIdx int
	sliceOf  int

	// planner selects the join-tree planning mode for entry builds
	// (SetPlanner). Empty means the library default (PlannerCost).
	planner renum.PlannerMode
}

// CoalesceConfig is empty and ignored: bench/ (frozen outside benchmark PRs)
// passes this literal to the registry constructors and must keep compiling;
// the next benchmark PR removes the type together with the parameter.
type CoalesceConfig struct{}

// NewRegistry returns a registry serving db with no queries yet.
func NewRegistry(db *renum.Database, _ CoalesceConfig, workers int) *Registry {
	r := newRegistry(workers)
	r.snap.Store(&snapshot{db: db, entries: map[string]*Entry{}})
	return r
}

// newRegistry returns a registry with its instruments but no snapshot.
func newRegistry(workers int) *Registry {
	r := &Registry{workers: workers}
	r.m = newRegistryMetrics(r)
	return r
}

// NewRegistryFromCatalog builds a registry around an opened snapshot
// catalog: the restored database and handles are served as-is (no
// recompilation — that is the whole point of booting from a snapshot), and
// the registry's generation numbering continues from the catalog's, so
// generations stay monotonic across daemon restarts. The catalog must stay
// open for the registry's lifetime (its handles alias the file mapping).
//
// Restored entries keep their parsed queries, so later LoadTable+Rebuild
// cycles recompile them against fresh data exactly like entries registered
// over HTTP.
func NewRegistryFromCatalog(cat *renum.Catalog, _ CoalesceConfig, workers int) (*Registry, error) {
	r := newRegistry(workers)
	entries := map[string]*Entry{}
	for _, ce := range cat.Entries() {
		src := load.QueryFromSrc(ce.Name, ce.Q)
		if src.Src() == nil {
			return nil, fmt.Errorf("catalog entry %s: unsupported query form", ce.Name)
		}
		entries[ce.Name] = &Entry{Name: ce.Name, Text: ce.Q.String(), H: ce.H, src: src, qm: r.m.probeOps(ce.Name)}
	}
	r.snap.Store(&snapshot{db: cat.DB(), entries: entries, gen: cat.Generation()})
	return r, nil
}

// SaveSnapshot persists the current generation into dir as
// gen-<generation>.snap (atomic write), returning the path, the generation
// saved, and the names of entries skipped because their backend has no
// snapshot form. It serializes with admin writes on the registry mutex:
// the snapshot on disk is always one the registry actually published,
// never a torn mid-load state.
//
// When a WAL is attached, the save also holds the update mutex — the saved
// state then includes every acknowledged update, so the segment's records
// are all folded in and the WAL rotates to an empty segment paired with
// the saved generation.
func (r *Registry) SaveSnapshot(dir string) (path string, gen uint64, skipped []string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wal.mu.Lock()
	defer r.wal.mu.Unlock()
	s := r.snap.Load()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, nil, err
	}
	var entries []renum.CatalogEntry
	for _, name := range sortedNames(s.entries) {
		e := s.entries[name]
		if !e.H.Has(renum.CapSnapshot) {
			skipped = append(skipped, name)
			continue
		}
		entries = append(entries, renum.CatalogEntry{Name: name, Q: e.src.Src(), H: e.H})
	}
	path = load.SnapshotPath(dir, s.gen)
	t0 := time.Now()
	if err := renum.SaveSnapshot(path, s.db, s.gen, entries); err != nil {
		return "", 0, skipped, err
	}
	r.m.snapSave.Record(time.Since(t0))
	if r.wal.log != nil {
		if err := r.rotateLocked(s.gen); err != nil {
			return "", 0, skipped, err
		}
	}
	return path, s.gen, skipped, nil
}

func sortedNames(m map[string]*Entry) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetShardSlice puts the registry in shard-daemon mode: every entry —
// already published or registered later, CQ or union, built or restored
// from a snapshot, and again after every Rebuild — serves only slice i of a
// k-way partition of its answer space, as local positions 0..Count()-1. A
// router re-bases the slices onto the global order from the daemons'
// counts. The slice is always the exact position window renum.SliceView
// cuts over the whole handle, so a fleet agrees on its boundaries however
// each shard booted. Updatable entries are rejected: positions shift under
// updates, so a static slice of them would drift off its window.
func (r *Registry) SetShardSlice(i, k int) error {
	if k < 1 || i < 0 || i >= k {
		return fmt.Errorf("shard slice %d/%d out of range", i, k)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.snap.Load()
	entries := make(map[string]*Entry, len(cur.entries))
	for name, e := range cur.entries {
		sl, err := shardWindow(name, e.H, i, k)
		if err != nil {
			return err
		}
		ne := *e
		ne.H = sl
		entries[name] = &ne
	}
	r.sliceIdx, r.sliceOf = i, k
	// Same generation: the served data did not change, only its window.
	r.snap.Store(&snapshot{db: cur.db, entries: entries, gen: cur.gen})
	return nil
}

// shardWindow is the one way an entry's handle becomes a shard's: slice i
// of k, as renum.SliceView cuts it (SliceView refuses an updatable handle
// with ErrUnsupported).
func shardWindow(name string, h *renum.Handle, i, k int) (*renum.Handle, error) {
	sl, err := renum.SliceView(h, i, k)
	if err != nil {
		return nil, fmt.Errorf("shard slice over entry %s: %w", name, err)
	}
	return sl, nil
}

// SetPlanner selects the join-tree planning mode applied to entries built
// after the call (Register, Rebuild): renum.PlannerCost sorts a CQ's body
// atoms by row count, renum.PlannerOff preserves the as-parsed tree
// byte-for-byte. Entries already published keep the tree
// they were built with until their next rebuild.
func (r *Registry) SetPlanner(mode renum.PlannerMode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.planner = mode
}

// EntryCount reports how many queries the current snapshot serves
// (lock-free; used by /readyz).
func (r *Registry) EntryCount() int {
	return len(r.snap.Load().entries)
}

// Snapshot returns the current generation. The result is immutable.
func (r *Registry) Snapshot() (db *renum.Database, gen uint64) {
	s := r.snap.Load()
	return s.db, s.gen
}

// Lookup returns the entry served under name in the current snapshot.
func (r *Registry) Lookup(name string) (*Entry, bool) {
	e, ok := r.snap.Load().entries[name]
	return e, ok
}

// lookupViewBytes resolves an entry together with the database of the SAME
// snapshot, from one atomic load — two loads can straddle a concurrent
// rebuild and pair an old entry with a new generation's dictionary. It is
// keyed by raw request bytes: the map access compiles to the no-copy string
// lookup, so a request resolves a query name without allocating.
func (r *Registry) lookupViewBytes(name []byte) (e *Entry, db *renum.Database, ok bool) {
	s := r.snap.Load()
	e, ok = s.entries[string(name)]
	return e, s.db, ok
}

// Names returns the served query names, sorted.
func (r *Registry) Names() []string {
	s := r.snap.Load()
	out := make([]string, 0, len(s.entries))
	for n := range s.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LoadTable registers CSV content as a relation named name in the database.
// Existing entries keep serving their already-built indexes (they snapshot
// the data at build time); call Rebuild to recompile them against the new
// table. Loading a name that already exists replaces that relation.
func (r *Registry) LoadTable(name string, csv io.Reader) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.snap.Load()
	if err := load.CSV(cur.db, name, csv); err != nil {
		return err
	}
	// The database object is shared across generations (only writers touch
	// it, under r.mu; probe paths never read it), but bump the generation so
	// observers can tell the dataset changed.
	r.publish(cur.db, cur.entries)
	return nil
}

// Register compiles the program text (any number of queries, grouped by
// head) and publishes a snapshot serving them, replacing same-named entries.
// With dynamic true, single-rule full CQs are opened with renum.WithDynamic
// (the entry gains the update capability). It returns the registered query
// names.
func (r *Registry) Register(text string, dynamic bool) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.snap.Load()
	qs, err := load.Queries(cur.db.Dict(), text)
	if err != nil {
		return nil, err
	}
	entries := cloneEntries(cur.entries)
	names := make([]string, 0, len(qs))
	for _, q := range qs {
		e, err := r.build(cur.db, q, dynamic)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", q.Name, err)
		}
		entries[e.Name] = e
		names = append(names, e.Name)
	}
	r.publish(cur.db, entries)
	return names, nil
}

// Rebuild recompiles every entry from its source text against the current
// database and swaps the whole snapshot atomically. In-flight requests keep
// reading the generation they started on.
func (r *Registry) Rebuild() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.snap.Load()
	entries := make(map[string]*Entry, len(cur.entries))
	for name, old := range cur.entries {
		e, err := r.build(cur.db, old.src, old.H.Has(renum.CapUpdate))
		if err != nil {
			return fmt.Errorf("rebuild %s: %w", name, err)
		}
		entries[e.Name] = e
	}
	r.publish(cur.db, entries)
	return nil
}

// build compiles one query into an Entry (no snapshot mutation).
func (r *Registry) build(db *renum.Database, q load.Query, dynamic bool) (*Entry, error) {
	opts := []renum.Option{renum.WithWorkers(r.workers)}
	// The dynamic flag applies to single-rule heads only; a union in the
	// same program still builds the static mc-UCQ backend (WithDynamic on a
	// UCQ is ErrUnsupported by contract).
	if dynamic && q.CQ != nil {
		opts = append(opts, renum.WithDynamic())
	}
	if r.planner != "" {
		opts = append(opts, renum.WithPlanner(r.planner))
	}
	// The build publishes the next generation; its stages are labeled so.
	observe := r.m.buildObserver(q.Name, r.snap.Load().gen+1)
	opts = append(opts, renum.WithBuildObserver(observe))
	src := q.Src()
	t0 := time.Now()
	h, err := renum.Open(db, src, opts...)
	if err == nil && r.sliceOf > 0 {
		h, err = shardWindow(q.Name, h, r.sliceIdx, r.sliceOf)
	}
	if err != nil {
		return nil, err
	}
	observe("total", time.Since(t0))
	return &Entry{Name: q.Name, Text: src.String(), H: h, src: q, qm: r.m.probeOps(q.Name)}, nil
}

func (r *Registry) publish(db *renum.Database, entries map[string]*Entry) {
	r.snap.Store(&snapshot{db: db, entries: entries, gen: r.snap.Load().gen + 1})
	r.m.published.Inc()
}

func cloneEntries(m map[string]*Entry) map[string]*Entry {
	out := make(map[string]*Entry, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
