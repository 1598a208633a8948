package main

import (
	"strings"
	"testing"
)

// The fixtures mirror internal/load/testdata:
//
//	r = {(1,2),(1,3),(2,3),(3,1)}   s = {(2,x),(3,y),(3,z),(1,w)}
//
// and the chain join Q(x,y,z) :- r(x,y), s(y,z) has the 6 answers the
// goldens below spell out. The goldens pin the CLI end to end — loader, CSV
// dialect, parser, every mode's output format and the enumeration order —
// so a regression in any layer fails here.
const testQ = "Q(x, y, z) :- r(x, y), s(y, z)."

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

func tableArgs() []string {
	return []string{"-table", "testdata/r.csv", "-table", "testdata/s.csv"}
}

func TestModesGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"count", []string{"-query", testQ, "-mode", "count"}, "6\n"},
		{"enum", []string{"-query", testQ, "-mode", "enum", "-k", "3"},
			"1, 2, x\n1, 3, y\n1, 3, z\n"},
		{"access", []string{"-query", testQ, "-mode", "access", "-k", "3"},
			"2, 3, y\n"},
		{"random", []string{"-query", testQ, "-mode", "random", "-k", "3", "-seed", "1"},
			"1, 3, z\n1, 2, x\n2, 3, y\n"},
		{"sample", []string{"-query", testQ, "-mode", "sample", "-k", "3", "-seed", "1"},
			"1, 3, z\n1, 2, x\n2, 3, y\n"},
		{"batch", []string{"-query", testQ, "-mode", "batch", "-js", "5,0,5"},
			"3, 1, w\n1, 2, x\n3, 1, w\n"},
		{"page", []string{"-query", testQ, "-mode", "page", "-offset", "2", "-k", "3"},
			"1, 3, z\n2, 3, y\n2, 3, z\n"},
		// -planner off pins the as-parsed bytes; the default's plan line
		// is checked by TestExplainShowsPlanSection.
		{"explain", []string{"-query", testQ, "-mode", "explain", "-planner", "off"},
			"full join over 2 node(s), head [x y z]\n" +
				"  Q#0[r] (x, y)  [4 tuples]\n" +
				"    Q#1[s] (y, z)  [4 tuples]  ⋈ parent on [y]\n"},
		{"ucq count", []string{"-query", "U(a, b) :- r(a, b). U(a, b) :- s(a, b).", "-mode", "count"}, "8\n"},
		{"ucq random", []string{"-query", "U(a, b) :- r(a, b). U(a, b) :- s(a, b).", "-mode", "random", "-k", "3", "-seed", "2"},
			"1, w\n1, 2\n1, 3\n"},
		// sample and page on unions ride the mc-UCQ handle's capability
		// surface (API-parity satellite): distinct draws, positional pages.
		{"ucq sample", []string{"-query", "U(a, b) :- r(a, b). U(a, b) :- s(a, b).", "-mode", "sample", "-k", "3", "-seed", "2"},
			"1, w\n3, 1\n3, z\n"},
		// k = 0 prints nothing (regression: the iterator loops must check
		// the budget before printing, not after).
		{"enum k=0", []string{"-query", testQ, "-mode", "enum", "-k", "0"}, ""},
		{"random k=0", []string{"-query", testQ, "-mode", "random", "-k", "0", "-seed", "1"}, ""},
		{"ucq page", []string{"-query", "U(a, b) :- r(a, b). U(a, b) :- s(a, b).", "-mode", "page", "-offset", "5", "-k", "3"},
			"3, y\n3, z\n1, w\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, append(tableArgs(), tc.args...)...)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr)
			}
			if stdout != tc.want {
				t.Fatalf("output:\n%q\nwant:\n%q", stdout, tc.want)
			}
		})
	}
}

// TestExplainShowsPlanSection: the default (cost) planner prints the atom
// order it compiled above the join tree.
func TestExplainShowsPlanSection(t *testing.T) {
	stdout, stderr, code := runCLI(t, append(tableArgs(), "-query", testQ, "-mode", "explain")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	want := "plan: atoms by row count, order [0 1]\n" +
		"full join over 2 node(s), head [x y z]\n" +
		"  Q#0[r] (x, y)  [4 tuples]\n" +
		"    Q#1[s] (y, z)  [4 tuples]  ⋈ parent on [y]\n"
	if stdout != want {
		t.Fatalf("explain output:\n%s\nwant:\n%s", stdout, want)
	}
	// An invalid planner mode is a usage error.
	if _, stderr, code := runCLI(t, append(tableArgs(), "-query", testQ, "-planner", "auto")...); code != 2 || !strings.Contains(stderr, "planner mode") {
		t.Fatalf("bad -planner: exit %d, stderr %q", code, stderr)
	}
}

func TestCLIErrors(t *testing.T) {
	// Missing required flags is a usage error.
	if _, _, code := runCLI(t); code != 2 {
		t.Fatalf("no flags: exit %d, want 2", code)
	}
	// Unknown mode.
	_, stderr, code := runCLI(t, append(tableArgs(), "-query", testQ, "-mode", "zigzag")...)
	if code != 1 || !strings.Contains(stderr, "unknown mode") {
		t.Fatalf("unknown mode: exit %d, stderr %q", code, stderr)
	}
	// A program with two distinct heads is not one query.
	_, stderr, code = runCLI(t, append(tableArgs(),
		"-query", "Q(a, b) :- r(a, b). P(a, b) :- s(a, b).")...)
	if code != 1 || !strings.Contains(stderr, "want exactly one") {
		t.Fatalf("two heads: exit %d, stderr %q", code, stderr)
	}
	// Missing table file.
	_, _, code = runCLI(t, "-table", "testdata/missing.csv", "-query", testQ, "-mode", "count")
	if code != 1 {
		t.Fatalf("missing table: exit %d, want 1", code)
	}
	// Out-of-range access position.
	_, _, code = runCLI(t, append(tableArgs(), "-query", testQ, "-mode", "access", "-k", "99")...)
	if code != 1 {
		t.Fatalf("out of range: exit %d, want 1", code)
	}
	// Bad -js list.
	_, _, code = runCLI(t, append(tableArgs(), "-query", testQ, "-mode", "batch", "-js", "1,zap")...)
	if code != 1 {
		t.Fatalf("bad js: exit %d, want 1", code)
	}
	// explain is a CQ-only capability: the union handle rejects it with the
	// library's uniform ErrUnsupported text.
	_, stderr, code = runCLI(t, append(tableArgs(),
		"-query", "U(a, b) :- r(a, b). U(a, b) :- s(a, b).", "-mode", "explain")...)
	if code != 1 || !strings.Contains(stderr, "unsupported") {
		t.Fatalf("ucq explain: exit %d, stderr %q", code, stderr)
	}
}
