// Package load turns external inputs — CSV files and datalog query text —
// into the library's data model. It is the single code path behind both the
// renum CLI and the renumd daemon, so the CSV dialect and the program
// grouping rules live here instead of in a main package.
//
// # CSV dialect
//
// A CSV file registers one relation: the file's base name (minus .csv) is
// the relation name, the header row is the schema, and every cell is
// dictionary-interned verbatim (numbers included), so constants in queries
// must be single-quoted: r(x, '42'). Records are whatever encoding/csv's
// Reader returns with its defaults (RFC 4180 quoting, CRLF or LF rows, blank
// lines skipped, every record as wide as the header). The input is read
// whole, once, and is the one copy of it the load holds: input with no '"'
// and no '\r' but in "\r\n" — bare fields split on ',' and line ends,
// which is what encoding/csv makes of it too — is split in place, each
// cell's bytes moved down over the separators before it, and a record of
// the wrong width fails with encoding/csv's own *csv.ParseError; any other
// input is read by encoding/csv itself into a buffer of cells. Cells are
// interned in file order a block at a time (Dict.InternCells), so values
// are numbered in order of first appearance, and a later duplicate row is
// dropped in one grouping pass (relation.DistinctColumns), so the first
// occurrences keep their order; an empty file (no header) is an error. A
// load that fails changes nothing: cells are interned and the relation
// registered only after the whole input has parsed. Registering a name that
// already exists replaces the previous relation (Database.Add semantics) —
// indexes built against the old relation keep working, which is what the
// daemon's load-then-rebuild dataset refresh relies on.
//
// # Programs
//
// A program is a sequence of datalog rules. Rules are grouped by head
// predicate, preserving first-appearance order: a head with one rule is a
// conjunctive query, a head with several rules is a union of CQs (the same
// convention the parser's ParseUCQ applies, including the #i disjunct
// renaming for diagnostics).
package load

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
)

// Tables registers every path in order, each as a relation named after its
// file (base name minus .csv). It stops at the first error.
func Tables(db *relation.Database, paths []string) error {
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = CSV(db, strings.TrimSuffix(filepath.Base(path), ".csv"), f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// CSV registers one relation from CSV content: the first record is the
// schema, every later record is a tuple with each cell interned. The input
// is read whole and its records split in place (cells); the relation is
// built, and its cells interned, only once the whole input has parsed, so
// input that fails to parse interns no value, and a load that fails
// replaces no relation.
func CSV(db *relation.Database, name string, r io.Reader) error {
	data, err := readAll(r)
	if err != nil {
		return err
	}
	header, buf, offs, err := cells(data)
	if err != nil {
		return err
	}
	schema, err := relation.NewSchema(header...)
	if err != nil {
		return err
	}
	arity := len(schema)
	rows := (len(offs) - 1) / arity
	if rows > relation.MaxTuples {
		return fmt.Errorf("relation %s: %d rows exceeds the %d-tuple limit", name, rows, relation.MaxTuples)
	}
	cols := make([][]relation.Value, arity)
	for a := range cols {
		cols[a] = make([]relation.Value, rows)
	}
	// Cells are interned in file order, a block at a time, and each block
	// is scattered into the columns.
	var vals [64]relation.Value
	dict := db.Dict()
	row, a := 0, 0
	for lo := 0; lo < len(offs)-1; lo += len(vals) {
		block := vals[:min(len(vals), len(offs)-1-lo)]
		dict.InternCells(buf, offs[lo:lo+len(block)+1], block)
		for _, v := range block {
			cols[a][row] = v
			if a++; a == arity {
				a, row = 0, row+1
			}
		}
	}
	rel, err := relation.DistinctColumns(name, schema, rows, cols)
	if err != nil {
		return err
	}
	db.Add(rel)
	return nil
}

// readAll reads r whole, in one allocation when r is a regular file or
// reports the bytes it holds (Len, as strings.Reader and bytes.Reader do).
func readAll(r io.Reader) ([]byte, error) {
	var b bytes.Buffer
	switch f := r.(type) {
	case interface{ Len() int }:
		b.Grow(f.Len() + bytes.MinRead)
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			b.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// cells splits CSV input into its header and its later records' cells:
// body cell i is buf[offs[i]:offs[i+1]], in file order, and every record
// is as wide as the header. Input with no '"' and no '\r' other than
// before '\n' is split in place (scan), so buf is data; anything else is
// read by encoding/csv into a fresh buffer.
func cells(data []byte) (header []string, buf []byte, offs []int, err error) {
	if plain(data) {
		return scan(data)
	}
	rd := csv.NewReader(bytes.NewReader(data))
	rd.ReuseRecord = true
	header, err = rd.Read()
	if err == io.EOF {
		return nil, nil, nil, errEmpty
	}
	if err != nil {
		return nil, nil, nil, err
	}
	header = slices.Clone(header)
	offs = []int{0}
	for {
		rec, err := rd.Read()
		if err == io.EOF {
			return header, buf, offs, nil
		}
		if err != nil {
			return nil, nil, nil, err
		}
		for _, cell := range rec {
			buf = append(buf, cell...)
			offs = append(offs, len(buf))
		}
	}
}

var errEmpty = errors.New("empty file")

// plain reports whether encoding/csv would read data as bare fields split
// on ',' and '\n': it holds no '"', and every '\r' ends a "\r\n".
func plain(data []byte) bool {
	if bytes.IndexByte(data, '"') >= 0 {
		return false
	}
	for i := 0; ; {
		j := bytes.IndexByte(data[i:], '\r')
		if j < 0 {
			return true
		}
		i += j + 1
		if i == len(data) || data[i] != '\n' {
			return false
		}
	}
}

// scan is cells for plain input, in one pass and in place: a cell's bytes
// are moved down over the separators before it, so buf is data's own
// memory. It keeps encoding/csv's reading of such input: a "\r\n" ends a
// line as '\n' does, a line with nothing on it is skipped, the first
// record is the header, and a record of another width is the
// *csv.ParseError encoding/csv returns, numbered by line.
func scan(data []byte) (header []string, buf []byte, offs []int, err error) {
	offs = make([]int, 1, bytes.Count(data, []byte{','})+bytes.Count(data, []byte{'\n'})+2)
	width := 0 // cells of the header
	w := 0     // data[:w] holds the cells so far
	for line, rest := 1, data; len(rest) > 0; line++ {
		l := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			l, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if n := len(l); n > 0 && l[n-1] == '\r' {
			l = l[:n-1]
		}
		if len(l) == 0 {
			continue
		}
		fields := 1
		for i := bytes.IndexByte(l, ','); i >= 0; i = bytes.IndexByte(l, ',') {
			w += copy(data[w:], l[:i])
			offs = append(offs, w)
			l = l[i+1:]
			fields++
		}
		w += copy(data[w:], l)
		offs = append(offs, w)
		switch {
		case width == 0:
			width = fields
		case fields != width:
			return nil, nil, nil, &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount}
		}
	}
	if width == 0 {
		return nil, nil, nil, errEmpty
	}
	header = make([]string, width)
	for k := range header {
		header[k] = string(data[offs[k]:offs[k+1]])
	}
	return header, data, offs[width:], nil
}

// Query is one named query of a program: exactly one of CQ or UCQ is set.
type Query struct {
	// Name is the head predicate shared by the query's rules.
	Name string
	// CQ is the single rule of a one-rule head.
	CQ *query.CQ
	// UCQ is the union of a multi-rule head.
	UCQ *query.UCQ
}

// Src returns the parsed query as the sealed query.Query — the form
// renum.Open takes — so consumers need no CQ-vs-UCQ branch of their own.
func (q Query) Src() query.Query {
	if q.CQ != nil {
		return q.CQ
	}
	return q.UCQ
}

// Queries parses a datalog program and groups its rules by head predicate
// (first-appearance order). Constants in the rules are interned into dict.
func Queries(dict *relation.Dict, text string) ([]Query, error) {
	rules, err := parser.ParseProgram(text, dict)
	if err != nil {
		return nil, err
	}
	var order []string
	byHead := make(map[string][]*query.CQ)
	for _, q := range rules {
		if _, seen := byHead[q.Name]; !seen {
			order = append(order, q.Name)
		}
		byHead[q.Name] = append(byHead[q.Name], q)
	}
	out := make([]Query, 0, len(order))
	for _, name := range order {
		group := byHead[name]
		if len(group) == 1 {
			out = append(out, Query{Name: name, CQ: group[0]})
			continue
		}
		// Disambiguate disjunct names for diagnostics, matching ParseUCQ.
		for i, q := range group {
			q.Name = fmt.Sprintf("%s#%d", name, i)
		}
		u, err := query.NewUCQ(name, group...)
		if err != nil {
			return nil, err
		}
		out = append(out, Query{Name: name, UCQ: u})
	}
	return out, nil
}

// One parses a program that must define exactly one query (any number of
// rules, all sharing one head predicate) — the CLI contract of cmd/renum.
func One(dict *relation.Dict, text string) (Query, error) {
	qs, err := Queries(dict, text)
	if err != nil {
		return Query{}, err
	}
	if len(qs) != 1 {
		names := make([]string, len(qs))
		for i, q := range qs {
			names[i] = q.Name
		}
		return Query{}, fmt.Errorf("program defines %d queries (%s), want exactly one",
			len(qs), strings.Join(names, ", "))
	}
	return qs[0], nil
}
