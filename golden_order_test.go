package renum

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/mcucq"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/synth"
)

// The golden file internal/access/testdata/golden_order.txt was recorded
// from the pre-columnar (map-of-string-keyed-buckets) implementation: for
// each seeded query it holds "# query <name> count <n>" followed by every
// answer of Access(0..n-1) as comma-separated values, plus one hash-only
// entry "# hash <name> count <n> sha256 <hex>" for a larger instance. The
// instance ooo3 (outOfOrderChain) was recorded later, from the
// first-appearance bucket numbering of the direct-addressed grouping, with
// its snapshot's SHA-256 as "# hash ooo3.snap bytes <n> sha256 <hex>".
//
// The enumeration order of the index is a public, load-bearing contract —
// mc-UCQ compatibility (Section 5.2) and inverted access both depend on it —
// so any representation change must reproduce the sequence byte for byte.
// These tests rebuild the same databases and queries (same seeds, same
// pipeline) and compare against the recording.
const goldenOrderFile = "internal/access/testdata/golden_order.txt"

// goldenAccessor abstracts the two index kinds enumerated in the golden file.
type goldenAccessor interface {
	Count() int64
	Access(j int64) (relation.Tuple, error)
}

// goldenIndexes rebuilds, in golden-file order, the exact query instances the
// recording was made from.
func goldenIndexes(t *testing.T) map[string]goldenAccessor {
	t.Helper()
	out := make(map[string]goldenAccessor)

	build := func(db *relation.Database, q *query.CQ, opts reduce.Options) goldenAccessor {
		fj, err := reduce.BuildFullJoin(db, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := access.New(fj)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}

	// Skewed star join (multi-child node, weight skew).
	db, q, err := synth.Star(synth.Config{Relations: 3, TuplesPerRelation: 60, KeyDomain: 25, SkewS: 1.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	out[q.Name] = build(db, q, reduce.Options{})

	// Chain join under canonical (sorted) order.
	db2, q2, err := synth.Chain(synth.Config{Relations: 3, TuplesPerRelation: 150, KeyDomain: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out[q2.Name] = build(db2, q2, reduce.Options{CanonicalOrder: true})

	// Chain with projection (existential vars, GYO elimination path).
	q3, err := query.NewCQ("proj", []string{"x0", "x1"}, q2.Body)
	if err != nil {
		t.Fatal(err)
	}
	out[q3.Name] = build(db2, q3, reduce.Options{})

	// mc-UCQ access over filtered variants of one relation.
	db4 := relation.NewDatabase()
	nat := db4.MustCreate("N", "a", "b")
	for i := 0; i < 30; i++ {
		for j := 0; j < 3; j++ {
			nat.MustInsert(relation.Value(i), relation.Value((i+j)%4))
		}
	}
	db4.Add(nat.Filter("N0", func(tu relation.Tuple) bool { return tu[1] <= 1 }))
	db4.Add(nat.Filter("N1", func(tu relation.Tuple) bool { return tu[1] >= 1 }))
	qa := query.MustCQ("QA", []string{"a", "b"}, query.NewAtom("N0", query.V("a"), query.V("b")))
	qb := query.MustCQ("QB", []string{"a", "b"}, query.NewAtom("N1", query.V("a"), query.V("b")))
	u, err := query.NewUCQ("U", qa, qb)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mcucq.New(db4, u, mcucq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out[u.Name] = m

	db5, q5 := outOfOrderChain(t)
	out[q5.Name] = build(db5, q5, reduce.Options{})

	return out
}

// outOfOrderChain is the chain R(a,b), S(b,c), T(c,d) whose join keys first
// appear out of value order in every child (S's b: 3, 8, 0, 5, …; T's c: 7,
// 18, 29, …) and span few enough values to be grouped by direct addressing.
// Bucket ids are numbered by first appearance, so its bucket layout differs
// from a numbering in value order; the enumeration order does not (a bucket
// holds the same rows whatever its id), so the golden file pins the layout
// through the instance's snapshot bytes (TestGoldenSnapshotHash).
func outOfOrderChain(t *testing.T) (*relation.Database, *query.CQ) {
	t.Helper()
	db := relation.NewDatabase()
	r := db.MustCreate("R", "a", "b")
	for i := 0; i < 40; i++ {
		r.MustInsert(relation.Value(i), relation.Value(i*7%13))
	}
	s := db.MustCreate("S", "b", "c")
	for i := 0; i < 60; i++ {
		s.MustInsert(relation.Value((i*5+3)%13), relation.Value(i))
	}
	u := db.MustCreate("T", "c", "d")
	for i := 0; i < 51; i++ {
		u.MustInsert(relation.Value((i*11+7)%60), relation.Value(i%5))
	}
	q := query.MustCQ("ooo3", []string{"a", "b", "c", "d"},
		query.NewAtom("R", query.V("a"), query.V("b")),
		query.NewAtom("S", query.V("b"), query.V("c")),
		query.NewAtom("T", query.V("c"), query.V("d")))
	return db, q
}

func formatAnswer(buf []byte, tu relation.Tuple) []byte {
	buf = buf[:0]
	for i, v := range tu {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return buf
}

// TestGoldenEnumerationOrder replays every recorded sequence answer by
// answer: the full enumeration of each index must equal the recording
// exactly — same count, same answers, same positions.
func TestGoldenEnumerationOrder(t *testing.T) {
	f, err := os.Open(goldenOrderFile)
	if err != nil {
		t.Fatalf("golden file missing (regenerate against the previous implementation): %v", err)
	}
	defer f.Close()

	indexes := goldenIndexes(t)

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		cur      goldenAccessor
		curName  string
		next     int64
		buf      []byte
		lineNo   int
		verified int
	)
	finish := func() {
		if cur == nil {
			return
		}
		if next != cur.Count() {
			t.Fatalf("query %s: golden file has %d answers, index has %d", curName, next, cur.Count())
		}
		verified++
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.HasPrefix(line, "# hash ") {
			continue // checked by TestGoldenEnumerationHash
		}
		if strings.HasPrefix(line, "# query ") {
			finish()
			fields := strings.Fields(line)
			curName = fields[2]
			wantCount, err := strconv.ParseInt(fields[4], 10, 64)
			if err != nil {
				t.Fatalf("line %d: bad count: %v", lineNo, err)
			}
			idx, ok := indexes[curName]
			if !ok {
				t.Fatalf("line %d: golden query %q not rebuilt by the test", lineNo, curName)
			}
			if idx.Count() != wantCount {
				t.Fatalf("query %s: Count = %d, want %d", curName, idx.Count(), wantCount)
			}
			cur, next = idx, 0
			continue
		}
		if cur == nil {
			t.Fatalf("line %d: answer before any query header", lineNo)
		}
		tu, err := cur.Access(next)
		if err != nil {
			t.Fatalf("query %s: Access(%d): %v", curName, next, err)
		}
		buf = formatAnswer(buf, tu)
		if string(buf) != line {
			t.Fatalf("query %s: Access(%d) = %s, golden %s (enumeration order changed)", curName, next, buf, line)
		}
		next++
	}
	finish()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if verified != len(indexes) {
		t.Fatalf("verified %d of %d recorded queries", verified, len(indexes))
	}
}

// TestGoldenEnumerationHash checks the larger recorded instance (493k
// answers) against its SHA-256: full sequence equality without storing the
// sequence.
func TestGoldenEnumerationHash(t *testing.T) {
	if testing.Short() {
		t.Skip("large golden enumeration skipped in -short mode")
	}
	f, err := os.Open(goldenOrderFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wantCount int64
	var wantHash string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# hash star3big ") {
			fields := strings.Fields(line)
			wantCount, err = strconv.ParseInt(fields[4], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			wantHash = fields[6]
		}
	}
	if wantHash == "" {
		t.Fatal("no hash entry in golden file")
	}

	db, q, err := synth.Star(synth.Config{Relations: 3, TuplesPerRelation: 200, KeyDomain: 30, SkewS: 1.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fj, err := reduce.BuildFullJoin(db, q, reduce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := access.New(fj)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Count() != wantCount {
		t.Fatalf("Count = %d, want %d", idx.Count(), wantCount)
	}
	h := sha256.New()
	buf := make([]byte, 0, 64)
	answer := make(relation.Tuple, len(idx.Head()))
	for j := int64(0); j < idx.Count(); j++ {
		if err := idx.AccessInto(j, answer); err != nil {
			t.Fatal(err)
		}
		buf = formatAnswer(buf, answer)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantHash {
		t.Fatalf("sequence hash %s, golden %s (enumeration order changed)", got, wantHash)
	}
}

// TestGoldenSnapshotHash checks every recorded "# hash <name>.snap" entry:
// the golden instance <name>, opened through the public API and written as
// a snapshot, must hash to the recording. A snapshot holds each node's
// group ids and bucket offsets, so this pins how buckets are numbered,
// which the enumeration order alone does not.
func TestGoldenSnapshotHash(t *testing.T) {
	f, err := os.Open(goldenOrderFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	instances := make(map[string]goldenInstance)
	for _, gi := range goldenInstances(t) {
		instances[gi.name] = gi
	}
	checked := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 7 || fields[1] != "hash" || !strings.HasSuffix(fields[2], ".snap") {
			continue
		}
		name := strings.TrimSuffix(fields[2], ".snap")
		gi, ok := instances[name]
		if !ok {
			t.Fatalf("snapshot hash of %q, which is not a golden instance", name)
		}
		var buf bytes.Buffer
		h := mustOpen(t, gi.db, gi.q, gi.opts...)
		if err := WriteSnapshot(&buf, gi.db, 0, []CatalogEntry{{Name: gi.name, Q: gi.q, H: h}}); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%d sha256 %x", buf.Len(), sha256.Sum256(buf.Bytes()))
		if want := fields[4] + " sha256 " + fields[6]; got != want {
			t.Fatalf("%s: snapshot bytes, sha256 = %s, golden %s (bucket layout changed)", name, got, want)
		}
		checked++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no snapshot hash entry in golden file")
	}
}

// goldenInstance is one recorded query instance rebuilt through the public
// API: enough to Open it — and to save/reopen it as a snapshot.
type goldenInstance struct {
	name string
	db   *Database
	q    Query
	opts []Option
}

// goldenInstances rebuilds, in golden-file order, the exact instances the
// recording was made from (the public-API counterpart of goldenIndexes).
// Every instance opens with WithPlanner(PlannerOff): the golden file pins
// the *as-parsed* tree's enumeration order, which is exactly what off mode
// promises to preserve byte-for-byte. The default cost mode is pinned
// separately (TestPlannerCostGoldenSetEquivalent and the candidate
// equivalence suite in plan_equivalence_test.go): same Count, same answer
// set, order free to improve.
func goldenInstances(t *testing.T) []goldenInstance {
	t.Helper()
	var out []goldenInstance

	db, q, err := synth.Star(synth.Config{Relations: 3, TuplesPerRelation: 60, KeyDomain: 25, SkewS: 1.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, goldenInstance{name: q.Name, db: db, q: q, opts: []Option{WithPlanner(PlannerOff)}})

	db2, q2, err := synth.Chain(synth.Config{Relations: 3, TuplesPerRelation: 150, KeyDomain: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, goldenInstance{name: q2.Name, db: db2, q: q2, opts: []Option{WithCanonical(), WithPlanner(PlannerOff)}})

	q3, err := query.NewCQ("proj", []string{"x0", "x1"}, q2.Body)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, goldenInstance{name: q3.Name, db: db2, q: q3, opts: []Option{WithPlanner(PlannerOff)}})

	db4 := relation.NewDatabase()
	nat := db4.MustCreate("N", "a", "b")
	for i := 0; i < 30; i++ {
		for j := 0; j < 3; j++ {
			nat.MustInsert(relation.Value(i), relation.Value((i+j)%4))
		}
	}
	db4.Add(nat.Filter("N0", func(tu relation.Tuple) bool { return tu[1] <= 1 }))
	db4.Add(nat.Filter("N1", func(tu relation.Tuple) bool { return tu[1] >= 1 }))
	qa := query.MustCQ("QA", []string{"a", "b"}, query.NewAtom("N0", query.V("a"), query.V("b")))
	qb := query.MustCQ("QB", []string{"a", "b"}, query.NewAtom("N1", query.V("a"), query.V("b")))
	u, err := query.NewUCQ("U", qa, qb)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, goldenInstance{name: u.Name, db: db4, q: u, opts: []Option{WithPlanner(PlannerOff)}})

	db5, q5 := outOfOrderChain(t)
	out = append(out, goldenInstance{name: q5.Name, db: db5, q: q5, opts: []Option{WithPlanner(PlannerOff)}})

	return out
}

// TestPlannerCostGoldenSetEquivalent opens every golden instance in the
// default cost mode and checks it against the off-mode build: identical
// Count, set-equal answers. The planner may pick a different tree (that is
// its job) but may never change the answer relation.
func TestPlannerCostGoldenSetEquivalent(t *testing.T) {
	for _, gi := range goldenInstances(t) {
		off := mustOpen(t, gi.db, gi.q, gi.opts...) // instances carry PlannerOff
		costOpts := append([]Option(nil), gi.opts...)
		costOpts = append(costOpts, WithPlanner(PlannerCost))
		cost := mustOpen(t, gi.db, gi.q, costOpts...)
		if off.Count() != cost.Count() {
			t.Fatalf("%s: off Count %d, cost Count %d", gi.name, off.Count(), cost.Count())
		}
		seen := make(map[string]int, off.Count())
		var buf []byte
		for tu, err := range off.All() {
			if err != nil {
				t.Fatal(err)
			}
			buf = formatAnswer(buf, tu)
			seen[string(buf)]++
		}
		for tu, err := range cost.All() {
			if err != nil {
				t.Fatal(err)
			}
			buf = formatAnswer(buf, tu)
			if seen[string(buf)] == 0 {
				t.Fatalf("%s: cost-mode answer %s not produced by off mode", gi.name, buf)
			}
			seen[string(buf)]--
		}
		for a, n := range seen {
			if n != 0 {
				t.Fatalf("%s: answer %s multiplicity differs by %d between modes", gi.name, a, n)
			}
		}
	}
}

// goldenHandles opens every golden instance through the public Open API.
func goldenHandles(t *testing.T) map[string]*Handle {
	t.Helper()
	out := make(map[string]*Handle)
	for _, gi := range goldenInstances(t) {
		out[gi.name] = mustOpen(t, gi.db, gi.q, gi.opts...)
	}
	return out
}

// TestGoldenEnumerationOrderViaIterator replays the recorded sequences
// through the iterator-native API: Handle.All() must walk every golden
// query's enumeration byte for byte — the new surface cannot perturb the
// order contract the old recordings pin.
func TestGoldenEnumerationOrderViaIterator(t *testing.T) {
	replayGoldenAgainstHandles(t, goldenHandles(t))
}

// TestGoldenEnumerationOrderSnapshotRoundTrip replays the same recordings a
// second way: every golden instance is built, saved into the versioned
// snapshot format, reopened from disk, and the restored handle's All()
// must walk the recorded sequence byte for byte. This pins the acceptance
// contract that a save→reopen round trip preserves the enumeration order
// exactly — built and restored indexes are interchangeable.
func TestGoldenEnumerationOrderSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	handles := make(map[string]*Handle)
	for i, gi := range goldenInstances(t) {
		h := mustOpen(t, gi.db, gi.q, gi.opts...)
		path := fmt.Sprintf("%s/golden-%d.snap", dir, i)
		if err := SaveSnapshot(path, gi.db, 0, []CatalogEntry{{Name: gi.name, Q: gi.q, H: h}}); err != nil {
			t.Fatalf("save %s: %v", gi.name, err)
		}
		cat, err := OpenSnapshot(path)
		if err != nil {
			t.Fatalf("open %s: %v", gi.name, err)
		}
		defer cat.Close()
		handles[gi.name] = cat.Entries()[0].H
	}
	replayGoldenAgainstHandles(t, handles)
}

// replayGoldenAgainstHandles drains each handle's iterator against the
// recorded sequences of the golden file.
func replayGoldenAgainstHandles(t *testing.T, handles map[string]*Handle) {
	t.Helper()
	f, err := os.Open(goldenOrderFile)
	if err != nil {
		t.Fatalf("golden file missing (regenerate against the previous implementation): %v", err)
	}
	defer f.Close()

	// Collect the recorded sequences per query, then drain each handle's
	// iterator against its recording.
	want := make(map[string][]string)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# hash ") {
			continue
		}
		if strings.HasPrefix(line, "# query ") {
			cur = strings.Fields(line)[2]
			order = append(order, cur)
			continue
		}
		want[cur] = append(want[cur], line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(handles) {
		t.Fatalf("golden file records %d queries, handles rebuilt %d", len(order), len(handles))
	}

	var buf []byte
	for _, name := range order {
		h, ok := handles[name]
		if !ok {
			t.Fatalf("golden query %q not rebuilt via Open", name)
		}
		if h.Count() != int64(len(want[name])) {
			t.Fatalf("query %s: Count = %d, golden %d", name, h.Count(), len(want[name]))
		}
		var j int
		for tu, err := range h.All() {
			if err != nil {
				t.Fatalf("query %s: All()[%d]: %v", name, j, err)
			}
			buf = formatAnswer(buf, tu)
			if string(buf) != want[name][j] {
				t.Fatalf("query %s: All()[%d] = %s, golden %s (enumeration order changed)", name, j, buf, want[name][j])
			}
			j++
		}
		if j != len(want[name]) {
			t.Fatalf("query %s: iterator yielded %d answers, golden %d", name, j, len(want[name]))
		}
	}
}
