package renum

import (
	"testing"
	"time"
)

// TestWithBuildObserver: Open reports build-stage timings for every handle
// kind, with non-negative durations and the stage names the serving tier's
// build histograms key on.
func TestWithBuildObserver(t *testing.T) {
	db, q := fixtureDB(t)
	_, u := fixtureUCQ(t)

	collect := func() (map[string]int, Option) {
		stages := map[string]int{}
		return stages, WithBuildObserver(func(stage string, d time.Duration) {
			if d < 0 {
				t.Errorf("stage %q reported negative duration %v", stage, d)
			}
			stages[stage]++
		})
	}

	cqStages, opt := collect()
	mustOpen(t, db, q, opt)
	for _, stage := range []string{"instantiate", "semijoin", "eliminate", "member_index", "index_build"} {
		if cqStages[stage] != 1 {
			t.Fatalf("static CQ stages = %v, want one %s", cqStages, stage)
		}
	}

	ucqStages, opt := collect()
	mustOpen(t, db, u, opt)
	if ucqStages["union_build"] != 1 {
		t.Fatalf("UCQ stages = %v, want one union_build", ucqStages)
	}

	dq := MustCQ("dq", []string{"a", "b"}, NewAtom("R", V("a"), V("b")))
	dynStages, opt := collect()
	mustOpen(t, db, dq, WithDynamic(), opt)
	if dynStages["dynamic_build"] != 1 {
		t.Fatalf("dynamic stages = %v, want one dynamic_build", dynStages)
	}

	// Without the option nothing is emitted (the hook defaults to nil and
	// Open must not panic on it).
	mustOpen(t, db, q)
}
