package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// The flag-surface baseline: every flag renumd declares, one sorted
// "-name  default" line each, recorded in api/renumd-flags.txt the way
// api/renum.txt records the library's exported API. A flag is an option
// every deployment, test and benchmark configuration has to account for, so
// adding, dropping or re-defaulting one is a reviewed change, not an
// accident.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/renumd -run TestFlagSurface -update-api-baseline
var updateAPIBaseline = flag.Bool("update-api-baseline", false, "rewrite api/renumd-flags.txt from the declared flags")

const flagBaselineFile = "../../api/renumd-flags.txt"

func TestFlagSurface(t *testing.T) {
	// -h makes runFlags declare everything, print usage and return before
	// any side effect.
	fs := flag.NewFlagSet("renumd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if code := runFlags(fs, []string{"-h"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("renumd -h = exit %d, want 2", code)
	}
	var sb strings.Builder
	fs.VisitAll(func(f *flag.Flag) { // VisitAll is sorted by name
		def := f.DefValue
		if def == "" {
			def = `""`
		}
		fmt.Fprintf(&sb, "-%s  %s\n", f.Name, def)
	})
	got := sb.String()

	if *updateAPIBaseline {
		if err := os.WriteFile(flagBaselineFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d flags)", flagBaselineFile, strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile(flagBaselineFile)
	if err != nil {
		t.Fatalf("no flag baseline (run `go test ./cmd/renumd -run TestFlagSurface -update-api-baseline` once): %v", err)
	}
	if got != string(want) {
		t.Errorf("renumd's flags differ from %s (regenerate the baseline if intended)\n--- declared\n%s--- baseline\n%s",
			flagBaselineFile, got, want)
	}
}
