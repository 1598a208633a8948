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
// Reader returns with its defaults (RFC 4180 quoting, CRLF or LF rows, every
// record as wide as the header), streamed one at a time into a byte buffer
// rather than read whole. Values are numbered in order of first appearance,
// and a later duplicate row is dropped by Relation.Insert, so the first
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
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relation"
)

// CSVFile registers the file at path as a relation named after the file
// (base name minus .csv).
func CSVFile(db *relation.Database, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), ".csv")
	if err := CSV(db, name, f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Tables registers every path in order. It stops at the first error.
func Tables(db *relation.Database, paths []string) error {
	for _, path := range paths {
		if err := CSVFile(db, path); err != nil {
			return err
		}
	}
	return nil
}

// CSV registers one relation from CSV content: the first record is the
// schema, every later record is a tuple with each cell interned. Records
// are streamed into one byte buffer; the relation is built, and its cells
// interned, only once the whole input has parsed, so input that fails to
// parse interns no value, and a load that fails replaces no relation.
func CSV(db *relation.Database, name string, r io.Reader) error {
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
	// cells holds every cell's bytes back to back; cell i ends at ends[i].
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
