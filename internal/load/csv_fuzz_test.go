package load

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/relation"
)

// refCSV is the loader CSV replaced, kept as FuzzCSV's reference:
// encoding/csv records streamed into one byte buffer, every cell interned
// with InternBytes once the input has parsed, and one Insert per row.
func refCSV(db *relation.Database, name string, r io.Reader) error {
	rd := csv.NewReader(r)
	rd.ReuseRecord = true
	header, err := rd.Read()
	if err == io.EOF {
		return fmt.Errorf("empty file")
	}
	if err != nil {
		return err
	}
	header = slices.Clone(header)
	var cells []byte
	var ends []int
	for {
		rec, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, cell := range rec {
			cells = append(cells, cell...)
			ends = append(ends, len(cells))
		}
	}
	schema, err := relation.NewSchema(header...)
	if err != nil {
		return err
	}
	rel := relation.NewRelation(name, schema)
	dict := db.Dict()
	tup := make(relation.Tuple, len(schema))
	start := 0
	for row := 0; row < len(ends); row += len(tup) {
		for k := range tup {
			end := ends[row+k]
			tup[k] = dict.InternBytes(cells[start:end])
			start = end
		}
		if _, err := rel.Insert(tup); err != nil {
			return err
		}
	}
	db.Add(rel)
	return nil
}

// csvRows returns a CSV file of a header and n rows over two columns; row i
// repeats row i−dup when dup > 0 and i ≥ dup.
func csvRows(n, dup int) []byte {
	b := []byte("k,v\n")
	for i := range n {
		j := i
		if dup > 0 && i >= dup {
			j = i - dup
		}
		b = fmt.Appendf(b, "%d,c%d\n", j%50, j)
	}
	return b
}

// FuzzCSV holds CSV to refCSV: the input is loaded as a file p, and, when
// two is set, b as a file q after it, once by each loader into a database of
// its own. Each load must fail with the same error text or succeed on both
// sides, and at the end both databases must hold the same relations (schema
// and rows, in order) and the same dictionary (every value's string, in
// order). Every row of a loaded relation must sit at its own position in
// the membership index.
func FuzzCSV(f *testing.F) {
	f.Add([]byte("a,b\r\n2,1\r\n1,2\r\n2,1\r\n3,\"x,y\"\r\n"),
		[]byte("c,d\n\"say \"\"hi\"\"\",1\n\"two\r\nlines\",\n2,\"x,y\"\n\"say \"\"hi\"\"\",1\n"), true)
	f.Add([]byte("a,b\r\n1,2\r\n3,4\r\n"), []byte("c\r\n4\r\n1\r\n"), true)
	f.Add([]byte("\n\na,b\n\n1,2\r\n\r\n\r\n3,4\n\n"), []byte("\r\n\r\nc\r\n\n4\n"), true)
	f.Add([]byte("a,b\n1,2\n3,4"), []byte("c\n5\r\n6\r"), true)
	f.Add([]byte("a,b\n1\r2,3\n"), []byte("c\rd\n1\n"), true)
	f.Add([]byte("a,b\n1,2\n\n3\n4,5\n"), []byte("c\n1,2\n"), true)
	f.Add([]byte("a,b,c\n1,2,3\n4,5\n"), []byte{}, false)
	f.Add([]byte("a,b\n"), []byte("c"), true)
	f.Add([]byte(""), []byte("a\n1\n"), true)
	f.Add([]byte("\r\n\n"), []byte{}, false)
	f.Add([]byte("a,a\n1,2\n"), []byte("b,\n1,2\n"), true)
	f.Add([]byte("a,b\n1,2\n3,4\n1,2\n1,2\n5,6\n3,4\n"), []byte("x\n1\n1\n2\n1\n"), true)
	for _, n := range []int{63, 64, 65, 129} {
		f.Add(csvRows(n, 0), csvRows(n, 17), true)
	}
	f.Add([]byte("a,b\nshared,1\nx,shared\n"), []byte("c,d\nshared,x\n1,y\n"), true)
	f.Fuzz(func(t *testing.T, a, b []byte, two bool) {
		files := [][]byte{a}
		if two {
			files = append(files, b)
		}
		got, want := relation.NewDatabase(), relation.NewDatabase()
		for i, data := range files {
			name := string(rune('p' + i))
			gotErr := CSV(got, name, bytes.NewReader(data))
			wantErr := refCSV(want, name, bytes.NewReader(data))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("file %s: CSV error %v, want %v", name, gotErr, wantErr)
			}
		}
		sameDatabase(t, got, want)
	})
}

// sameDatabase fails unless got and want hold the same relations, row for
// row, and the same dictionary, value for value.
func sameDatabase(t *testing.T, got, want *relation.Database) {
	t.Helper()
	if g, w := got.Names(), want.Names(); !slices.Equal(g, w) {
		t.Fatalf("relations %v, want %v", g, w)
	}
	for _, name := range want.Names() {
		g, _ := got.Relation(name)
		w, _ := want.Relation(name)
		if g.Schema().String() != w.Schema().String() || g.Len() != w.Len() {
			t.Fatalf("%s: schema %s, %d rows; want %s, %d rows", name, g.Schema(), g.Len(), w.Schema(), w.Len())
		}
		for i := range w.Len() {
			tup := w.Tuple(i)
			if gt := g.Tuple(i); !gt.Equal(tup) {
				t.Fatalf("%s row %d = %v, want %v", name, i, gt, tup)
			}
			if p := g.Position(tup); p != i {
				t.Fatalf("%s: Position(row %d) = %d", name, i, p)
			}
		}
	}
	gd, wd := got.Dict(), want.Dict()
	if gd.Len() != wd.Len() {
		t.Fatalf("dictionary holds %d values, want %d", gd.Len(), wd.Len())
	}
	for v := range relation.Value(wd.Len()) {
		if g, w := gd.String(v), wd.String(v); g != w {
			t.Fatalf("value %d = %q, want %q", v, g, w)
		}
	}
}

// TestCSVLoadAllocs: a 10 000-row load of 20 000 distinct cells allocates
// for the input (once: the reader reports its length), the columns, the
// arena chunks and the doublings of the dictionary's and the index's tables
// — O(chunks + log cells), not O(cells); publishing a grown value table
// allocates nothing. Measured at 58 allocations on amd64 with Go 1.24; the
// pin is 70.
func TestCSVLoadAllocs(t *testing.T) {
	const rows = 10000
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := range rows {
		sb.WriteString(strconv.Itoa(i))
		sb.WriteString(",v")
		sb.WriteString(strconv.Itoa(i))
		sb.WriteString("\n")
	}
	data := sb.String()
	n := testing.AllocsPerRun(5, func() {
		if err := CSV(relation.NewDatabase(), "r", strings.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-row load: %.0f allocations", rows, n)
	if n > 70 {
		t.Fatalf("%d-row load: %.0f allocations, want at most 70", rows, n)
	}
}
