package load

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/relation"
)

func TestCSVFile(t *testing.T) {
	db := relation.NewDatabase()
	if err := Tables(db, []string{
		filepath.Join("testdata", "r.csv"),
		filepath.Join("testdata", "s.csv"),
	}); err != nil {
		t.Fatal(err)
	}
	r, err := db.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Schema().String(), "(a, b)"; got != want {
		t.Fatalf("r schema = %s, want %s", got, want)
	}
	if r.Len() != 4 {
		t.Fatalf("r has %d tuples, want 4", r.Len())
	}
	s, err := db.Relation("s")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("s has %d tuples, want 4", s.Len())
	}
	// Cells are interned verbatim: "1" in r.a and "1" in s.b share a Value.
	v, ok := db.Dict().Lookup("1")
	if !ok {
		t.Fatal(`"1" not interned`)
	}
	if got := db.Dict().String(v); got != "1" {
		t.Fatalf("round trip = %q", got)
	}
}

func TestCSVErrors(t *testing.T) {
	db := relation.NewDatabase()
	if err := CSV(db, "empty", strings.NewReader("")); err == nil {
		t.Fatal("empty CSV: want error")
	}
	if err := CSV(db, "r", strings.NewReader("a,b\n1,2\n")); err != nil {
		t.Fatal(err)
	}
	// Re-registering a name replaces the relation (dataset refresh).
	if err := CSV(db, "r", strings.NewReader("a,b\n3,4\n5,6\n")); err != nil {
		t.Fatal(err)
	}
	if r, _ := db.Relation("r"); r.Len() != 2 {
		t.Fatalf("replaced r has %d tuples, want 2", r.Len())
	}
	// Ragged rows are a CSV error.
	if err := CSV(db, "bad", strings.NewReader("a,b\n1,2,3\n")); err == nil {
		t.Fatal("ragged row: want error")
	}
}

func TestQueriesGrouping(t *testing.T) {
	db := relation.NewDatabase()
	qs, err := Queries(db.Dict(), `
		Q(x, y) :- r(x, y).
		P(x) :- r(x, y), s(y, z).
		Q(x, y) :- s(x, y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("got %d queries, want 2", len(qs))
	}
	// First-appearance order: Q (two rules → UCQ), then P (one rule → CQ).
	if qs[0].Name != "Q" || qs[0].UCQ == nil || qs[0].CQ != nil {
		t.Fatalf("qs[0] = %+v, want UCQ named Q", qs[0])
	}
	if len(qs[0].UCQ.Disjuncts) != 2 {
		t.Fatalf("Q has %d disjuncts, want 2", len(qs[0].UCQ.Disjuncts))
	}
	if qs[1].Name != "P" || qs[1].CQ == nil || qs[1].UCQ != nil {
		t.Fatalf("qs[1] = %+v, want CQ named P", qs[1])
	}
	// Src exposes the sealed query form renum.Open consumes: the UCQ for
	// multi-rule heads, the CQ otherwise.
	if got, want := any(qs[0].Src()), any(qs[0].UCQ); got != want {
		t.Fatalf("Src of a union = %T, want the UCQ", qs[0].Src())
	}
	if got, want := any(qs[1].Src()), any(qs[1].CQ); got != want {
		t.Fatalf("Src of a single rule = %T, want the CQ", qs[1].Src())
	}
}

func TestQueriesArityMismatch(t *testing.T) {
	db := relation.NewDatabase()
	if _, err := Queries(db.Dict(), "Q(x, y) :- r(x, y). Q(x) :- s(x, y)."); err == nil {
		t.Fatal("mismatched disjunct arity: want error")
	}
}

func TestOne(t *testing.T) {
	db := relation.NewDatabase()
	q, err := One(db.Dict(), "Q(x, y) :- r(x, y). Q(y, x) :- r(x, y).")
	if err != nil {
		t.Fatal(err)
	}
	if q.UCQ == nil {
		t.Fatal("want UCQ")
	}
	if _, err := One(db.Dict(), "Q(x) :- r(x, y). P(x) :- r(x, y)."); err == nil {
		t.Fatal("two heads: want error")
	}
}

// TestCSVLoadSemantics pins what a load produces, cell by cell: a later
// duplicate row is dropped and the first occurrences keep their order,
// dictionary values are numbered in order of first appearance across
// files, quoted cells and CRLF rows are interned as encoding/csv reads
// them, and a header-only file gives an empty relation.
func TestCSVLoadSemantics(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	db := relation.NewDatabase()
	if err := Tables(db, []string{
		write("p.csv", "a,b\r\n2,1\r\n1,2\r\n2,1\r\n3,\"x,y\"\r\n"),
		write("q.csv", "c,d\n\"say \"\"hi\"\"\",1\n\"two\r\nlines\",\n2,\"x,y\"\n\"say \"\"hi\"\"\",1\n"),
	}); err != nil {
		t.Fatal(err)
	}
	dict := db.Dict()
	wantDict := []string{"", "2", "1", "3", "x,y", `say "hi"`, "two\nlines"}
	if dict.Len() != len(wantDict) {
		t.Fatalf("dictionary holds %d values, want %d", dict.Len(), len(wantDict))
	}
	for i, want := range wantDict {
		if got := dict.String(relation.Value(i)); got != want {
			t.Fatalf("value %d = %q, want %q", i, got, want)
		}
	}
	for name, want := range map[string][]relation.Tuple{
		"p": {{1, 2}, {2, 1}, {3, 4}},
		"q": {{5, 2}, {6, 0}, {1, 4}},
	} {
		r, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != len(want) {
			t.Fatalf("%s has %d rows, want %d", name, r.Len(), len(want))
		}
		for i, tup := range want {
			if got := r.Tuple(i); !got.Equal(tup) {
				t.Fatalf("%s row %d = %v, want %v", name, i, got, tup)
			}
		}
	}

	if err := CSV(db, "h", strings.NewReader("a,b\n")); err != nil {
		t.Fatal(err)
	}
	h, err := db.Relation("h")
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 0 || h.Schema().String() != "(a, b)" {
		t.Fatalf("header-only file: %d rows, schema %s", h.Len(), h.Schema())
	}
}

// csvBuildSnapshot was written by an earlier build's loader from
// csvBuildTables and csvBuildPrograms, so it pins dictionary ids and row
// order through the CSV path. It is a format-version-1 file.
const csvBuildSnapshot = "testdata/csv_build.snap"

var (
	csvBuildTables   = []string{"testdata/r.csv", "testdata/s.csv", "testdata/t.csv"}
	csvBuildPrograms = []string{
		"Q(x, y, z) :- r(x, y), s(y, z).",
		"J(b, c, e) :- s(b, c), t(c, e). U(x, y) :- r(x, y). U(x, y) :- s(x, y).",
	}
)

// TestCSVBuildSnapshotBytes: Tables, Compile and WriteSnapshot reproduce
// csvBuildSnapshot byte for byte, in the format this build writes —
// csvBuildSnapshot, opened and saved again, is the bytes to match.
func TestCSVBuildSnapshotBytes(t *testing.T) {
	old, err := os.ReadFile(csvBuildSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := renum.OpenSnapshotBytes(old)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	var want bytes.Buffer
	if err := renum.WriteSnapshot(&want, cat.DB(), cat.Generation(), cat.Entries()); err != nil {
		t.Fatal(err)
	}
	db := renum.NewDatabase()
	if err := Tables(db, csvBuildTables); err != nil {
		t.Fatal(err)
	}
	entries, err := Compile(db, csvBuildPrograms, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := renum.WriteSnapshot(&got, db, 0, entries); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteSnapshot: %d bytes, %s saved again: %d bytes", got.Len(), csvBuildSnapshot, want.Len())
	}
}
