package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro"
	"repro/internal/load"
	"repro/internal/relation"
	"repro/internal/synth"
)

// dataset is one generated instance in the form the programs under test
// receive it: CSV files and a datalog program. Nothing else crosses over.
type dataset struct {
	tables  []string // CSV paths, in load order
	program string   // defines the single query Q
	tuples  int
}

const queryName = "Q"

// errCountRange is the dataset guard's named error: a generated instance
// must have 0 < Count() <= 2^53 (answers counted exactly by every consumer,
// JSON numbers included). A 4 x 1M star with KeyDomain 2000 and SkewS 1.2
// wraps int64 and reports a negative count — see README.md, finding (c).
var errCountRange = errors.New("bench: dataset guard: Count() outside (0, 2^53]")

func guardCount(n int64) error {
	if n <= 0 || n > 1<<53 {
		return fmt.Errorf("%w: got %d", errCountRange, n)
	}
	return nil
}

// genStar writes the BENCH_serving.json dataset as CSV: a 4-relation star
// join with a Zipf-distributed centre key.
func genStar(dir string, seed int64, tuplesPerRelation int) (*dataset, error) {
	keyDomain := 2000
	if keyDomain > tuplesPerRelation {
		keyDomain = tuplesPerRelation
	}
	db, q, err := synth.Star(synth.Config{
		Relations: 4, TuplesPerRelation: tuplesPerRelation, KeyDomain: keyDomain, SkewS: 1.2, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	ds := &dataset{}
	var atoms []string
	for _, a := range q.Body {
		rel, err := db.Relation(a.Relation)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, a.Relation+".csv")
		if err := writeRelationCSV(path, rel); err != nil {
			return nil, err
		}
		ds.tables = append(ds.tables, path)
		ds.tuples += rel.Len()
		terms := make([]string, len(a.Terms))
		for i, t := range a.Terms {
			terms[i] = t.Var
		}
		atoms = append(atoms, fmt.Sprintf("%s(%s)", a.Relation, strings.Join(terms, ", ")))
	}
	ds.program = fmt.Sprintf("%s(%s) :- %s.", queryName, strings.Join(q.Head, ", "), strings.Join(atoms, ", "))
	return ds, nil
}

func writeRelationCSV(path string, rel *relation.Relation) error {
	return writeCSV(path, []string(rel.Schema()), rel.Len(), func(dst []byte, i int) []byte {
		for a := 0; a < rel.Arity(); a++ {
			if a > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(rel.At(i, a)), 10)
		}
		return dst
	})
}

// genTwoPath writes r(a,b) and s(b,c) with n tuples each; the join key b is
// uniform over n/4 values, so Q(a,b,c) :- r(a,b), s(b,c) has about 4n
// answers and every r tuple joins (almost surely) with a handful of s tuples.
func genTwoPath(dir string, seed int64, n int) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	keys := twoPathKeys(n)
	rPath, sPath := filepath.Join(dir, "r.csv"), filepath.Join(dir, "s.csv")
	err := writeCSV(rPath, []string{"a", "b"}, n, func(dst []byte, i int) []byte {
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, ',')
		return strconv.AppendInt(dst, int64(rng.Intn(keys)), 10)
	})
	if err != nil {
		return nil, err
	}
	err = writeCSV(sPath, []string{"b", "c"}, n, func(dst []byte, i int) []byte {
		dst = strconv.AppendInt(dst, int64(rng.Intn(keys)), 10)
		dst = append(dst, ',')
		return strconv.AppendInt(dst, int64(i), 10)
	})
	if err != nil {
		return nil, err
	}
	return &dataset{
		tables:  []string{rPath, sPath},
		program: queryName + "(a, b, c) :- r(a, b), s(b, c).",
		tuples:  2 * n,
	}, nil
}

func twoPathKeys(n int) int {
	if n < 4 {
		return 1
	}
	return n / 4
}

func writeCSV(path string, header []string, rows int, row func(dst []byte, i int) []byte) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.WriteString(strings.Join(header, ",") + "\n"); err != nil {
		return err
	}
	var line []byte
	for i := 0; i < rows; i++ {
		line = append(row(line[:0], i), '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return w.Flush()
}

// loadDataset loads the dataset the way renumd does — same CSV loader, same
// program parser — for the in-process handle every reply is checked against.
func loadDataset(ds *dataset) (*renum.Database, renum.Query, error) {
	db := renum.NewDatabase()
	if err := load.Tables(db, ds.tables); err != nil {
		return nil, nil, err
	}
	q, err := load.One(db.Dict(), ds.program)
	if err != nil {
		return nil, nil, err
	}
	return db, q.Src(), nil
}
