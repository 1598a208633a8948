// Write-ahead logging and online compaction for the registry.
//
// The durability contract: when a WAL is attached, every accepted /update
// is appended to the current segment — and fsynced, under the default
// policy — *before* it mutates the index, and acknowledged only after
// both. The served dynamic state is therefore always reconstructible as
// the newest snapshot generation plus a replay of that generation's
// segment, which is exactly what boot does (Registry.AttachWAL after
// restoring gen-G.snap opens wal-G.log and replays it).
//
// Records store tuple cells as strings, not interned values: replay
// re-interns them against the restored dictionary, whose append-only,
// deterministic assignment reproduces consistent values without the log
// depending on dictionary state.
//
// Compaction folds the segment back into the snapshot lineage: rebuild
// every updatable entry aside (Handle.CompactAside — byte-identical
// enumeration, tombstones preserved), write gen+1's snapshot atomically,
// rotate the WAL to gen+1's empty segment, and publish the rebuilt entries
// with the registry's usual pointer swap. Probes never block — only
// updates pause, on the same mutex that orders append against apply. A
// crash between any two of those steps leaves a recoverable pairing on
// disk: the newest snapshot plus whatever segment matches it.
package server

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/load"
	"repro/internal/wal"
)

// errWALAppend marks a failed append: the update was NOT applied (the
// contract is append-before-apply) and the client must see a server error,
// not a 400.
var errWALAppend = errors.New("server: WAL append failed; update not applied")

// errNoWAL marks Compact called without an attached WAL — a configuration
// mistake by the caller (400), unlike the internal fold/rotate failures.
var errNoWAL = errors.New("server: no WAL attached (start the daemon with -wal-dir)")

// walState couples the registry to its write-ahead log. The zero value is
// "no WAL attached"; mu is meaningful either way — it serializes updates
// so that log order always equals apply order.
type walState struct {
	mu     sync.Mutex
	log    *wal.Log
	dir    string
	policy wal.SyncPolicy
	gen    uint64 // generation whose snapshot this segment extends

	replayed    int64
	replayTime  time.Duration // opening the segment, parsing and applying its records
	compactions int64
	folded      int64

	// Rotation cleanup warnings: the rotation itself succeeded (new segment
	// installed, old records folded) but closing or removing the superseded
	// segment failed. Non-fatal, surfaced via /metrics so disk problems are
	// not silent.
	rotateWarns int64
}

// AttachWAL opens (creating if absent) the WAL segment paired with the
// registry's current generation inside dir, replays its records against
// the served entries, and begins appending subsequent updates to it. A
// torn tail — the signature of a crash mid-append — is truncated, never
// fatal. Records that no longer resolve (entry gone, no longer updatable,
// bad target) are counted as skipped rather than failing the boot.
func (r *Registry) AttachWAL(dir string, policy wal.SyncPolicy) (replayed, skipped int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wal.mu.Lock()
	defer r.wal.mu.Unlock()
	if r.wal.log != nil {
		return 0, 0, errors.New("server: WAL already attached")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	s := r.snap.Load()
	lg, recs, err := wal.Open(load.WALPath(dir, s.gen), policy)
	if err != nil {
		return 0, 0, err
	}
	for _, rec := range recs {
		if err := replayRecord(s, rec); err != nil {
			skipped++
			continue
		}
		replayed++
	}
	lg.SetHooks(r.m.walHooks)
	r.wal.log = lg
	r.wal.dir = dir
	r.wal.policy = policy
	r.wal.gen = s.gen
	r.wal.replayed = int64(replayed)
	r.wal.replayTime = time.Since(t0)
	return replayed, skipped, nil
}

// CloseWAL detaches and closes the log (daemon shutdown). Updates applied
// afterwards are no longer logged.
func (r *Registry) CloseWAL() error {
	r.wal.mu.Lock()
	defer r.wal.mu.Unlock()
	if r.wal.log == nil {
		return nil
	}
	err := r.wal.log.Close()
	r.wal.log = nil
	return err
}

// replayRecord applies one logged update to the snapshot's entries,
// without re-logging it. It mirrors ApplyUpdate's resolution exactly.
func replayRecord(s *snapshot, rec wal.Record) error {
	e, ok := s.entries[rec.Query]
	if !ok {
		return fmt.Errorf("no entry %q", rec.Query)
	}
	upd, err := e.H.Updater()
	if err != nil {
		return err
	}
	if uv, ok := upd.(renum.UpdateValidator); ok {
		if err := uv.ValidateUpdate(rec.Relation, len(rec.Tuple)); err != nil {
			return err
		}
	}
	dict := s.db.Dict()
	switch rec.Op {
	case wal.OpInsert:
		_, err = upd.Insert(rec.Relation, internCells(dict, rec.Tuple))
	case wal.OpDelete:
		t, known := lookupCells(dict, rec.Tuple)
		if !known {
			return nil // a tuple with unknown values is in no relation
		}
		_, err = upd.Delete(rec.Relation, t)
	default:
		err = fmt.Errorf("unknown op %v", rec.Op)
	}
	return err
}

func internCells(dict *renum.Dict, cells []string) renum.Tuple {
	t := make(renum.Tuple, len(cells))
	for i, c := range cells {
		t[i] = dict.Intern(c)
	}
	return t
}

func lookupCells(dict *renum.Dict, cells []string) (renum.Tuple, bool) {
	t := make(renum.Tuple, len(cells))
	for i, c := range cells {
		v, ok := dict.Lookup(c)
		if !ok {
			return nil, false
		}
		t[i] = v
	}
	return t, true
}

// ApplyUpdate runs one update through the served entry's updater with the
// append-before-apply contract: the record lands in the WAL (durable to
// the attached policy's standard) strictly before the dictionary or the
// index change, and the caller acknowledges the client strictly after.
// e and db are the handler's lock-free view; under the update mutex they
// are re-resolved from the snapshot current at apply time, because a
// Compact can publish rebuilt-aside entries between the handler's load and
// this lock — applying to the superseded handle would append the record to
// the rotated segment yet leave the change invisible to every served read,
// and the next compaction (which rebuilds from the served handle) would
// drop it permanently. Entry and dictionary still come from ONE load, so a
// concurrent rebuild cannot split them across generations.
//
// The update mutex spans append + apply, so WAL order equals apply order;
// probes stay lock-free throughout.
func (r *Registry) ApplyUpdate(e *Entry, db *renum.Database, op wal.Op, relName string, cells []string) (changed bool, err error) {
	r.wal.mu.Lock()
	defer r.wal.mu.Unlock()
	// Compact holds this mutex across its pointer swap, so the snapshot
	// loaded here is the generation the append will extend.
	if s := r.snap.Load(); s.entries[e.Name] != nil {
		e, db = s.entries[e.Name], s.db
	}
	upd, err := e.H.Updater()
	if err != nil {
		return false, err
	}
	// Validate before any side effect: garbage must not reach the
	// append-only dictionary or the log.
	if uv, ok := upd.(renum.UpdateValidator); ok {
		if err := uv.ValidateUpdate(relName, len(cells)); err != nil {
			return false, err
		}
	}
	dict := db.Dict()
	switch op {
	case wal.OpDelete:
		// Resolve first — a tuple with values the dictionary has never
		// seen is in no relation: nothing to apply, and nothing worth
		// logging (an attacker looping such deletes would otherwise grow
		// the log without bound, the disk analog of dict poisoning).
		t, known := lookupCells(dict, cells)
		if !known {
			return false, nil
		}
		if err := r.appendLocked(op, e.Name, relName, cells); err != nil {
			return false, err
		}
		return upd.Delete(relName, t)
	case wal.OpInsert:
		// Append before interning: the record carries the cell strings,
		// so the log never depends on dictionary state, and a failed
		// append leaves the dictionary untouched.
		if err := r.appendLocked(op, e.Name, relName, cells); err != nil {
			return false, err
		}
		return upd.Insert(relName, internCells(dict, cells))
	}
	return false, fmt.Errorf("server: unknown update op %v", op)
}

// appendLocked logs one record if a WAL is attached (wal.mu held).
func (r *Registry) appendLocked(op wal.Op, query, rel string, cells []string) error {
	if r.wal.log == nil {
		return nil
	}
	if err := r.wal.log.Append(wal.Record{Op: op, Query: query, Relation: rel, Tuple: cells}); err != nil {
		return fmt.Errorf("%w: %v", errWALAppend, err)
	}
	return nil
}

// rotateLocked starts a fresh, empty segment paired with gen and removes
// the superseded one (both locks held). When the segment for gen is the
// current file, Create truncates it in place and nothing is removed.
// Close/remove failures on the superseded segment do not fail the rotation
// — the new segment is already installed and the old records are folded —
// but they are recorded as rotate warnings (see WALStats), not dropped.
func (r *Registry) rotateLocked(gen uint64) error {
	newLog, err := wal.Create(load.WALPath(r.wal.dir, gen), r.wal.policy)
	if err != nil {
		return err
	}
	newLog.SetHooks(r.m.walHooks)
	old, oldPath := r.wal.log, r.wal.log.Path()
	r.wal.log, r.wal.gen = newLog, gen
	if err := old.Close(); err != nil {
		r.wal.rotateWarns++
	}
	if oldPath != newLog.Path() {
		if err := os.Remove(oldPath); err != nil {
			r.wal.rotateWarns++
		}
	}
	return nil
}

// Compact folds the WAL into a new snapshot generation: every updatable
// entry is rebuilt aside from its current logical contents, the catalog is
// saved as gen+1's snapshot, the WAL rotates to gen+1's empty segment, and
// the rebuilt entries are published with one atomic pointer swap. Probes
// never block (in-flight readers keep the old snapshot; new requests see
// the new one); updates pause for the duration. An empty segment is a
// no-op: folding nothing would just mint generations.
//
// Crash safety: the snapshot is written atomically *before* the rotation,
// and the rotation before the publish — at every intermediate point the
// disk holds a snapshot generation plus a segment whose replay reproduces
// exactly the acknowledged state.
func (r *Registry) Compact(snapshotDir string) (gen uint64, folded int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wal.mu.Lock()
	defer r.wal.mu.Unlock()
	if r.wal.log == nil {
		return 0, 0, errNoWAL
	}
	cur := r.snap.Load()
	folded = r.wal.log.Depth()
	if folded == 0 {
		return cur.gen, 0, nil
	}
	t0 := time.Now()
	newGen := cur.gen + 1
	entries := make(map[string]*Entry, len(cur.entries))
	for name, e := range cur.entries {
		if !e.H.Has(renum.CapUpdate) {
			entries[name] = e // static entries did not change; share them
			continue
		}
		h, err := e.H.CompactAside()
		if err != nil {
			return 0, 0, fmt.Errorf("compact %s: %w", name, err)
		}
		// The rebuilt entry keeps recording into the query's existing probe
		// histograms.
		entries[name] = &Entry{Name: e.Name, Text: e.Text, H: h, src: e.src, qm: e.qm}
	}
	if err := os.MkdirAll(snapshotDir, 0o755); err != nil {
		return 0, 0, err
	}
	var ces []renum.CatalogEntry
	for _, name := range sortedNames(entries) {
		e := entries[name]
		if !e.H.Has(renum.CapSnapshot) {
			return 0, 0, fmt.Errorf("compact: entry %q has no snapshot form", name)
		}
		ces = append(ces, renum.CatalogEntry{Name: name, Q: e.src.Src(), H: e.H})
	}
	snapPath := load.SnapshotPath(snapshotDir, newGen)
	saveT0 := time.Now()
	if err := renum.SaveSnapshot(snapPath, cur.db, newGen, ces); err != nil {
		return 0, 0, err
	}
	r.m.snapSave.Record(time.Since(saveT0))
	if err := r.rotateLocked(newGen); err != nil {
		// The registry keeps serving gen cur.gen and acking updates into
		// wal-<cur.gen>.log, but boot pairs the NEWEST snapshot with its own
		// segment: leaving gen+1's snapshot behind would pair it with an
		// empty wal-<gen+1>.log on the next boot and silently drop every
		// update acked after this failure. Unpublish it before reporting.
		if rmErr := os.Remove(snapPath); rmErr != nil {
			return 0, 0, fmt.Errorf("rotate WAL: %w; orphaned snapshot %s not removed (%v) — remove it before restarting or updates acked after this point will be lost on boot", err, snapPath, rmErr)
		}
		return 0, 0, err
	}
	r.wal.compactions++
	r.wal.folded += folded
	r.snap.Store(&snapshot{db: cur.db, entries: entries, gen: newGen})
	r.m.compact.Record(time.Since(t0))
	r.m.compactFolded.Add(uint64(folded))
	r.m.published.Inc()
	return newGen, folded, nil
}

// WALStats is the /metrics view of the write-ahead log.
type WALStats struct {
	Attached      bool
	SegmentGen    uint64
	Depth         int64
	Replayed      int64
	ReplaySeconds float64
	TornTail      bool
	Compactions   int64
	Folded        int64

	// Non-fatal rotation cleanup failures (close/remove of a superseded
	// segment); the fold itself succeeded.
	RotateWarnings int64
}

// WALStats reports the current WAL state for /metrics.
func (r *Registry) WALStats() WALStats {
	r.wal.mu.Lock()
	defer r.wal.mu.Unlock()
	st := WALStats{
		Replayed:       r.wal.replayed,
		ReplaySeconds:  r.wal.replayTime.Seconds(),
		Compactions:    r.wal.compactions,
		Folded:         r.wal.folded,
		RotateWarnings: r.wal.rotateWarns,
	}
	if r.wal.log != nil {
		st.Attached = true
		st.SegmentGen = r.wal.gen
		st.Depth = r.wal.log.Depth()
		st.TornTail = r.wal.log.TornTail() != nil
	}
	return st
}
