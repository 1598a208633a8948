package renum

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/tpchq"
)

// BenchmarkPlanSearch prices the planner itself: one op is a full candidate
// enumeration + costing run over a paper query (statistics collection
// included, as Open pays it). A planner change that blows up search time —
// it runs inside every admin-triggered build — shows here per query, and
// end to end as paper_tpch's plan.search_ms layer in BENCHMARK.json.
func BenchmarkPlanSearch(b *testing.B) {
	d := db(b)
	for _, q := range tpchq.CQs() {
		q := q
		b.Run(q.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.ChooseCQ(d, q, plan.ModeCost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, u := range tpchq.UCQs() {
		u := u
		b.Run(u.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.ChooseUCQ(d, u, plan.ModeCost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpenPlanned prices what the planner adds to (or saves from) a
// full Open: the same query built in cost mode and with the planner off.
func BenchmarkOpenPlanned(b *testing.B) {
	d := db(b)
	q := tpchq.CQs()[2] // Q3: a mid-size join the planner actually reorders on
	for _, arm := range []struct {
		name string
		opts []Option
	}{
		{"Cost", nil},
		{"Off", []Option{WithPlanner(PlannerOff)}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Open(d, q, arm.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
