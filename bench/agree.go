package main

import (
	"fmt"
	"io"
	"math"
)

// runAgree is the benchmark's own repeatability check: it runs the set of
// workloads twice with the same code and seed and compares, per workload and
// end-to-end metric, the two values against the metric's bound. It exits
// non-zero when any pair differs by more than its bound — a benchmark that
// cannot tell two runs of the same code apart from a regression gates
// nothing.
func runAgree(e *env, o options, names []string, stdout, stderr io.Writer) int {
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = make(map[string]*result)
		for _, name := range names {
			res, err := runWorkload(e, name, o)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			sets[i][name] = res
			res.print(stdout, false)
		}
	}
	status := 0
	fmt.Fprintf(stdout, "\n%-18s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range names {
		a, b := sets[0][name], sets[1][name]
		if a.failed+b.failed > 0 {
			status = 1
		}
		for _, m := range endToEnd {
			if !m.on(name) {
				continue
			}
			va, vb := a.e2e[m.Name].V, b.e2e[m.Name].V
			diff := 0.0
			if va != vb {
				diff = math.Abs(vb-va) / math.Abs(va)
			}
			verdict := ""
			if diff > m.Bound || !finite(diff) {
				verdict, status = "  DISAGREE", 1
			}
			fmt.Fprintf(stdout, "%-18s %-22s %14s %14s %7.1f%% %5.0f%%%s\n", name, m.Name, fmtNum(va), fmtNum(vb), 100*diff, 100*m.Bound, verdict)
		}
	}
	return status
}
