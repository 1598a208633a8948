// Command renum loads relations from CSV files and answers a conjunctive
// query (or a union of CQs) with the library's enumeration algorithms.
//
// Each -table FILE registers a relation: the file's base name (minus .csv) is
// the relation name, the header row is the schema, and every cell is
// dictionary-interned (numbers included), so constants in queries must be
// single-quoted: r(x, '42'). (The CSV dialect and program grouping rules are
// shared with the renumd daemon via internal/load.)
//
// Usage:
//
//	renum -table r.csv -table s.csv -query 'Q(x,z,y) :- r(x,y), s(y,z).' -mode random -k 10
//	renum -table r.csv -query 'Q(x) :- r(x, y).' -mode count
//	renum -table r.csv -query "Q(x,y) :- r(x,'42')." -mode access -k 3
//	renum -table r.csv -query 'Q(x,y) :- r(x,y).' -mode batch -js 5,0,5
//	renum -table r.csv -query 'Q(x,y) :- r(x,y).' -mode page -offset 1000 -k 50 -workers 4
//	renum -table r.csv -query 'Q(x,y) :- r(x,y).' -mode explain
//
// Modes: count, enum (deterministic order), random (uniform random order),
// sample (k distinct uniform answers, probes fanned out), access (print the
// -k-th answer), batch (print the -js positions via AccessBatch), page
// (rows offset..offset+k-1), explain (print the compiled plan — a
// capability of CQ indexes only).
//
// The CLI is a thin shell over renum.Open: one handle serves every mode,
// and modes that need an optional capability (sample, explain) discover it
// on the handle — a query whose backend lacks the capability fails with the
// library's ErrUnsupported text. Multiple rules with the same head form a
// UCQ served by the mc-UCQ handle; mode random on a union instead uses
// REnum(UCQ) (Algorithm 5), which works for every union of free-connex CQs,
// including ones the mc-UCQ handle rejects as incompatible. -workers caps
// both the index build and the per-call fan-out of batched probes (0 = all
// cores).
//
// # Snapshots
//
// The build subcommand compiles tables + programs once and persists the
// whole catalog (dictionary, relations, every query's index) into the
// versioned binary snapshot format:
//
//	renum build -table r.csv -table s.csv -query 'Q(x,y,z) :- r(x,y), s(y,z).' -o q.snap
//
// Any later invocation serves every mode straight from the file — cold
// start is open+validate instead of load+preprocess:
//
//	renum -snapshot q.snap -mode count
//	renum -snapshot q.snap -name Q -mode page -offset 1000 -k 50
//
// -name picks the entry when the snapshot holds several queries (optional
// for single-entry snapshots). On a union entry, mode random enumerates via
// the restored mc-UCQ permutation (REnum(mcUCQ)) — the Algorithm 5
// enumerator needs fresh preprocessing, which is what a snapshot exists to
// avoid. Mode explain is unavailable on restored entries (the compiled plan
// is not persisted).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/load"
)

type tableList []string

func (t *tableList) String() string     { return strings.Join(*t, ",") }
func (t *tableList) Set(s string) error { *t = append(*t, s); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the CLI is testable
// end to end.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "build" {
		return runBuild(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("renum", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var tables tableList
	fs.Var(&tables, "table", "CSV file to load as a relation (repeatable)")
	var (
		queryText = fs.String("query", "", "datalog rule(s), e.g. 'Q(x,y) :- r(x,y).'")
		snapFile  = fs.String("snapshot", "", "serve from a snapshot built with `renum build` instead of -table/-query")
		name      = fs.String("name", "", "query to serve from the snapshot (default: its only entry)")
		mode      = fs.String("mode", "random", "count | enum | random | sample | access | batch | page | explain")
		k         = fs.Int64("k", 10, "answers to print (random/enum) or position (access)")
		seed      = fs.Int64("seed", 1, "random seed")
		offset    = fs.Int64("offset", 0, "first row of the page (mode page)")
		workers   = fs.Int("workers", 0, "goroutines for index build and batched probes (0 = all cores)")
		jsArg     = fs.String("js", "", "comma-separated answer positions (mode batch)")
		plannerMo = fs.String("planner", "cost", "join-tree planner: cost (a CQ's atoms sorted by row count; a union as parsed) | off (as-parsed order, byte-identical to older builds)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	planner, err := renum.ParsePlannerMode(*plannerMo)
	if err != nil {
		fmt.Fprintln(stderr, err) // already carries the renum: prefix
		return 2
	}

	rng := rand.New(rand.NewSource(*seed))

	if *snapFile != "" {
		if *queryText != "" || len(tables) > 0 {
			fmt.Fprintln(stderr, "renum: -snapshot replaces -table/-query (the snapshot holds both data and compiled queries)")
			return 2
		}
		if err := runFromSnapshot(stdout, *snapFile, *name, *mode, *k, *offset, *jsArg, *workers, rng); err != nil {
			fmt.Fprintf(stderr, "renum: %v\n", err)
			return 1
		}
		return 0
	}

	if *queryText == "" || len(tables) == 0 {
		fmt.Fprintln(stderr, "renum: -query and at least one -table are required (or -snapshot FILE)")
		fs.Usage()
		return 2
	}

	db := renum.NewDatabase()
	if err := load.Tables(db, tables); err != nil {
		fmt.Fprintf(stderr, "renum: %v\n", err)
		return 1
	}

	q, err := load.One(db.Dict(), *queryText)
	if err != nil {
		fmt.Fprintf(stderr, "renum: %v\n", err)
		return 1
	}

	if q.UCQ != nil && *mode == "random" {
		// Algorithm 5 rather than the mc-UCQ handle: random-order
		// enumeration of *any* union of free-connex CQs, with no mutual
		// compatibility requirement.
		err = runUnionRandom(stdout, db, q.UCQ, *k, rng)
	} else {
		err = runQuery(stdout, db, q, *mode, *k, *offset, *jsArg, *workers, planner, rng)
	}
	if err != nil {
		fmt.Fprintf(stderr, "renum: %v\n", err)
		return 1
	}
	return 0
}

// runBuild is the `renum build` subcommand: compile once, persist the whole
// catalog, serve many times (from this CLI via -snapshot, or from renumd
// via -snapshot-dir).
func runBuild(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("renum build", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var tables tableList
	var queries tableList
	fs.Var(&tables, "table", "CSV file to load as a relation (repeatable)")
	fs.Var(&queries, "query", "datalog program to compile (repeatable; rules grouped by head)")
	var (
		out       = fs.String("o", "", "output snapshot file (required)")
		workers   = fs.Int("workers", 0, "goroutines for index construction (0 = all cores)")
		canonical = fs.Bool("canonical", false, "content-determined (sorted) enumeration order")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" || len(tables) == 0 || len(queries) == 0 {
		fmt.Fprintln(stderr, "renum build: -o, -query and at least one -table are required")
		fs.Usage()
		return 2
	}
	db := renum.NewDatabase()
	if err := load.Tables(db, tables); err != nil {
		fmt.Fprintf(stderr, "renum build: %v\n", err)
		return 1
	}
	entries, err := load.Compile(db, queries, *workers, *canonical)
	if err != nil {
		fmt.Fprintf(stderr, "renum build: %v\n", err)
		return 1
	}
	if err := renum.SaveSnapshot(*out, db, 0, entries); err != nil {
		fmt.Fprintf(stderr, "renum build: %v\n", err)
		return 1
	}
	st, err := os.Stat(*out)
	if err != nil {
		fmt.Fprintf(stderr, "renum build: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "renum build: wrote %s (%d bytes, format v%d)\n", *out, st.Size(), renum.SnapshotVersion)
	for _, e := range entries {
		fmt.Fprintf(stdout, "renum build: compiled %s (%s, %d answers)\n", e.Name, e.H.Kind(), e.H.Count())
	}
	return 0
}

// runFromSnapshot serves one mode from a catalog snapshot: cold start is
// open+validate, no CSV parsing and no preprocessing.
func runFromSnapshot(out io.Writer, path, name, mode string, k, offset int64, jsArg string, workers int, rng *rand.Rand) error {
	cat, err := renum.OpenSnapshot(path, renum.WithWorkers(workers))
	if err != nil {
		return err
	}
	defer cat.Close()
	entries := cat.Entries()
	var h *renum.Handle
	switch {
	case name != "":
		for _, e := range entries {
			if e.Name == name {
				h = e.H
				break
			}
		}
		if h == nil {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name
			}
			return fmt.Errorf("snapshot has no query %q (entries: %s)", name, strings.Join(names, ", "))
		}
	case len(entries) == 1:
		h = entries[0].H
	default:
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name
		}
		return fmt.Errorf("snapshot holds %d queries (%s): pick one with -name", len(entries), strings.Join(names, ", "))
	}
	return runModes(out, cat.DB(), h, mode, k, offset, jsArg, rng)
}

// parsePositions parses the -js flag ("3,0,17").
func parsePositions(jsArg string) ([]int64, error) {
	var js []int64
	for _, part := range strings.Split(jsArg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		j, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-js: %w", err)
		}
		js = append(js, j)
	}
	return js, nil
}

// runQuery serves every mode from one renum.Handle — CQs and unions take
// the same code path; capability misses surface as the library's
// ErrUnsupported errors.
func runQuery(out io.Writer, db *renum.Database, q load.Query, mode string, k, offset int64, jsArg string, workers int, planner renum.PlannerMode, rng *rand.Rand) error {
	h, err := renum.Open(db, q.Src(), renum.WithWorkers(workers), renum.WithPlanner(planner))
	if err != nil {
		return err
	}
	return runModes(out, db, h, mode, k, offset, jsArg, rng)
}

// runModes dispatches one mode against a prepared handle — built or
// restored from a snapshot, the dispatch is identical.
func runModes(out io.Writer, db *renum.Database, h *renum.Handle, mode string, k, offset int64, jsArg string, rng *rand.Rand) error {
	switch mode {
	case "count":
		fmt.Fprintln(out, h.Count())
	case "explain":
		plan, err := h.Explain()
		if err != nil {
			return err
		}
		fmt.Fprint(out, plan)
	case "access":
		t, err := h.Access(k)
		if err != nil {
			return err
		}
		printAnswer(out, db, t)
	case "enum":
		printed := int64(0)
		for t, err := range h.All() {
			if err != nil {
				return err
			}
			if printed >= k {
				break
			}
			printAnswer(out, db, t)
			printed++
		}
	case "random":
		printed := int64(0)
		for t, err := range h.Shuffled(rng) {
			if err != nil {
				return err
			}
			if printed >= k {
				break
			}
			printAnswer(out, db, t)
			printed++
		}
	case "sample":
		smp, err := h.Sampler()
		if err != nil {
			return err
		}
		ts, err := smp.SampleN(k, rng)
		if err != nil {
			return err
		}
		for _, t := range ts {
			printAnswer(out, db, t)
		}
	case "batch":
		js, err := parsePositions(jsArg)
		if err != nil {
			return err
		}
		ts, err := h.AccessBatch(js)
		if err != nil {
			return err
		}
		for _, t := range ts {
			printAnswer(out, db, t)
		}
	case "page":
		ts, err := h.Page(offset, k)
		if err != nil {
			return err
		}
		for _, t := range ts {
			printAnswer(out, db, t)
		}
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	return nil
}

// runUnionRandom drains k answers of REnum(UCQ) (Algorithm 5).
func runUnionRandom(out io.Writer, db *renum.Database, u *renum.UCQ, k int64, rng *rand.Rand) error {
	e, err := renum.NewRandomOrderUnion(db, u, rng)
	if err != nil {
		return err
	}
	for i := int64(0); i < k; i++ {
		t, ok := e.Next()
		if !ok {
			break
		}
		printAnswer(out, db, t)
	}
	return nil
}

// printAnswer renders values through the dictionary.
func printAnswer(out io.Writer, db *renum.Database, t renum.Tuple) {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = db.Dict().String(v)
	}
	fmt.Fprintln(out, strings.Join(parts, ", "))
}
