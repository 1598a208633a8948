// Package exp is the experiment harness reproducing every figure and table of
// the paper's Section 6 and Appendix B (this list is the index; the README's
// "Testing" section says how the benchmarks behind it are run):
//
//	Fig1  — total enumeration time, REnum(CQ) vs Sample(EW), six CQs
//	Fig2  — delay box plots, full enumeration
//	Fig3  — delay box plots, 50% enumeration
//	Fig4a — UCQ total time: cumulative CQs vs REnum(UCQ) vs REnum(mcUCQ)
//	Fig4b — QS7∪QC7 total time across percentages
//	Fig5  — REnum(UCQ) time on answers vs time on rejections per decile
//	Fig6  — Fig1 plus the Sample(EO) baseline
//	Fig7  — delay mean / standard deviation / outlier percentage tables
//	Fig8  — Q3 with the Sample(OE) baseline
//	RS    — appendix B.2.3: the Sample(RS) baseline on Q3
//
// Absolute times depend on hardware and scale factor; the harness reproduces
// the paper's *shapes*: who wins, how gaps grow with the requested fraction
// of answers, and where crossovers occur.
package exp

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/access"
	"repro/internal/cqenum"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relation"
	"repro/internal/sample"
	"repro/internal/tpch"
	"repro/internal/tpchq"
)

// DefaultPercentages are the answer fractions used by Figure 1.
var DefaultPercentages = []int{1, 5, 10, 30, 50, 70, 90}

// Config controls a harness run.
type Config struct {
	// ScaleFactor is the TPC-H scale factor (the paper uses 5; laptop-scale
	// defaults are far smaller).
	ScaleFactor float64
	// Seed drives data generation and all algorithm randomness.
	Seed int64
	// Percentages overrides DefaultPercentages when non-empty.
	Percentages []int
	// Timeout caps each single algorithm run; zero means no cap. Runs that
	// exceed it report DNF for the remaining thresholds.
	Timeout time.Duration
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
	// Workers caps the goroutines used by index construction (per-query
	// join-tree builds and the mc-UCQ disjunct/intersection preparation).
	// 0 means all cores; 1 forces serial builds — the paper's measurements
	// are single-threaded, so use 1 when comparing against its absolute
	// numbers.
	Workers int
}

// Runner owns the generated database and configuration.
type Runner struct {
	cfg Config
	db  *relation.Database
	rng *rand.Rand
}

// NewRunner generates the TPC-H database (plus derived relations) and returns
// a harness.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.ScaleFactor == 0 {
		cfg.ScaleFactor = 0.02
	}
	if len(cfg.Percentages) == 0 {
		cfg.Percentages = DefaultPercentages
	}
	db, err := tpch.Generate(tpch.Config{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if err := tpchq.PrepareDerived(db); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg, db: db, rng: rand.New(rand.NewSource(cfg.Seed + 1))}, nil
}

// DB exposes the generated database (examples and tests reuse it).
func (r *Runner) DB() *relation.Database { return r.db }

func (r *Runner) printf(format string, args ...interface{}) {
	if r.cfg.Out != nil {
		fmt.Fprintf(r.cfg.Out, format, args...)
	}
}

// DNF marks a threshold that was not reached within the timeout.
const DNF = -1.0

// thresholds converts percentages to absolute answer counts for a result of
// size n (at least 1 per threshold so tiny scales stay meaningful).
func (r *Runner) thresholds(n int64) []int64 {
	out := make([]int64, len(r.cfg.Percentages))
	for i, p := range r.cfg.Percentages {
		k := n * int64(p) / 100
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		out[i] = k
	}
	return out
}

// prepareCQ prepares a CQ, returning the prepared query and the preprocessing
// wall time. The index build honours Config.Workers (the parallel builder).
func (r *Runner) prepareCQ(q *query.CQ) (*cqenum.CQ, float64, error) {
	start := time.Now()
	c, err := cqenum.PrepareWithOptions(r.db, q, reduce.Options{}, r.buildOptions())
	if err != nil {
		return nil, 0, fmt.Errorf("exp: %s: %w", q.Name, err)
	}
	return c, time.Since(start).Seconds(), nil
}

// buildOptions returns the index-construction options used across the
// harness.
func (r *Runner) buildOptions() access.BuildOptions {
	return access.BuildOptions{Workers: r.cfg.Workers}
}

// runThresholds drives next() until each threshold (cumulative answers) is
// hit, recording elapsed seconds per threshold; DNF after the timeout or if
// next() gives up early.
func (r *Runner) runThresholds(ks []int64, next func() bool) []float64 {
	out := make([]float64, len(ks))
	for i := range out {
		out[i] = DNF
	}
	start := time.Now()
	var produced int64
	ti := 0
	for ti < len(ks) {
		if r.cfg.Timeout > 0 && time.Since(start) > r.cfg.Timeout {
			return out
		}
		if !next() {
			return out
		}
		produced++
		for ti < len(ks) && produced >= ks[ti] {
			out[ti] = time.Since(start).Seconds()
			ti++
		}
	}
	return out
}

// fmtSec renders seconds or DNF.
func fmtSec(s float64) string {
	if s == DNF {
		return "DNF"
	}
	switch {
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// reduceOptions returns the reduction options used across the harness.
func (r *Runner) reduceOptions() reduce.Options { return reduce.Options{} }

// newSampler builds a baseline sampler over a prepared CQ.
func (r *Runner) newSampler(c *cqenum.CQ, m sample.Method) *sample.Sampler {
	return sample.New(c.Index, m, rand.New(rand.NewSource(r.cfg.Seed+int64(m)+13)))
}
