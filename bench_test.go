// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation:
//
//	BenchmarkTable1          — Table 1 (E1): search space parameters of
//	                           TPC-H Q5/Q7/Q8/Q9, with and without
//	                           Cartesian products, 10,000 uniform samples
//	BenchmarkFigure4         — Figure 4 (E2): cost distribution histograms
//	                           of the lower 50% of sampled scaled costs
//	BenchmarkCounting        — E3: the paper's "counting never exceeded
//	                           one second" claim
//	BenchmarkUnranking       — E4: unranking is a small fraction of
//	                           counting
//	BenchmarkSampling        — drawing uniform plans (rank + unrank)
//	BenchmarkOptimize        — full optimization (memo + winners)
//	BenchmarkExecuteOptimal  — the execution engine on the optimal plan
//	BenchmarkVerifySampled   — E8: the multi-plan verification harness
//	BenchmarkPruningAblation — E9: space retained by a pruning optimizer
//
// Sample sizes follow the paper (10,000) for Table 1/Figure 4; override
// with REPRO_BENCH_SAMPLES for quicker runs.
package repro

import (
	"context"
	"fmt"
	"math/big"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tpch"
)

var (
	benchOnce sync.Once
	benchDB   *storage.DB
	benchErr  error
)

func benchSamples() int {
	if s := os.Getenv("REPRO_BENCH_SAMPLES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 10000
}

func db(tb testing.TB) *storage.DB {
	benchOnce.Do(func() {
		benchDB, benchErr = tpch.NewDB(0.001, 42)
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchDB
}

func prepare(tb testing.TB, query string, cross bool) *engine.Prepared {
	tb.Helper()
	sqlText, ok := tpch.Query(query)
	if !ok {
		tb.Fatalf("unknown query %s", query)
	}
	p, err := engine.New(db(tb), engine.WithCartesian(cross)).Prepare(sqlText)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkCounting measures the paper's Section 3.2 post-processing:
// materializing links and counting the full space (E3). The paper reports
// under one second even for large queries; per-op times here are
// milliseconds.
func BenchmarkCounting(b *testing.B) {
	for _, q := range tpch.PaperQueries() {
		for _, cross := range []bool{false, true} {
			name := q
			if cross {
				name += "_cross"
			}
			b.Run(name, func(b *testing.B) {
				p := prepare(b, q, cross)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := core.Prepare(p.Opt.Memo)
					if err != nil {
						b.Fatal(err)
					}
					if s.Count().Sign() <= 0 {
						b.Fatal("empty space")
					}
				}
			})
		}
	}
}

// BenchmarkUnranking measures Section 3.3 (E4): extracting one plan by
// number. The paper: "unranking takes only a small fraction of the time
// needed for counting".
func BenchmarkUnranking(b *testing.B) {
	for _, q := range tpch.PaperQueries() {
		b.Run(q, func(b *testing.B) {
			p := prepare(b, q, false)
			smp, err := p.Sampler(1)
			if err != nil {
				b.Fatal(err)
			}
			// Pre-draw ranks so only Unrank is measured.
			ranks := make([]*big.Int, 1024)
			for i := range ranks {
				ranks[i] = smp.NextRank()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Unrank(ranks[i%len(ranks)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampling draws uniform plans (rank generation + unranking).
func BenchmarkSampling(b *testing.B) {
	for _, q := range []string{"Q5", "Q8"} {
		b.Run(q, func(b *testing.B) {
			p := prepare(b, q, false)
			smp, err := p.Sampler(1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := smp.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampleRanks measures pure rank generation on the batched
// uint64 API — the number a sampling service would quote as raw
// rank throughput.
func BenchmarkSampleRanks(b *testing.B) {
	smp, err := prepare(b, "Q9", false).Sampler(3)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]uint64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := smp.SampleRanks(dst); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(dst) * 8))
}

// BenchmarkOptimize measures the substrate: memo expansion, cardinality
// annotation, and winner computation.
func BenchmarkOptimize(b *testing.B) {
	e := engine.New(db(b))
	eCross := engine.New(db(b), engine.WithCartesian(true))
	for _, cfg := range []struct {
		name  string
		eng   *engine.Engine
		query string
	}{
		{"Q5", e, "Q5"},
		{"Q9", e, "Q9"},
		{"Q8_cross", eCross, "Q8"},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			sqlText, _ := tpch.Query(cfg.query)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cfg.eng.Prepare(sqlText); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepare prices the space cache: cold runs the full pipeline
// (parse, bind, optimize, count) against a fresh cache every iteration;
// cached hits the fingerprint cache and pays only parse + digest + map
// lookup. The ratio is the repeated-query speedup the plan-space
// service is built around (acceptance: >= 50x on a TPC-H query).
func BenchmarkPrepare(b *testing.B) {
	sqlText, _ := tpch.Query("Q9")
	b.Run("Q9/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := engine.New(db(b), engine.WithCache(engine.NewSpaceCache(1)))
			if _, err := e.Prepare(sqlText); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Q9/cached", func(b *testing.B) {
		e := engine.New(db(b))
		if _, err := e.Prepare(sqlText); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := e.Prepare(sqlText)
			if err != nil {
				b.Fatal(err)
			}
			if !p.Cached {
				b.Fatal("expected a cache hit")
			}
		}
	})
}

// BenchmarkRecost measures the overlay tier's payoff: re-costing a
// cached structure after a cost-side change (here a feedback-epoch
// bump; statistics refreshes and cost-parameter changes take the same
// path) versus the cold Prepare the old single-tier cache would have
// paid. The tentpole acceptance bar is >= 10x.
func BenchmarkRecost(b *testing.B) {
	sqlText, _ := tpch.Query("Q9")
	b.Run("Q9/recost", func(b *testing.B) {
		e := engine.New(db(b))
		if _, err := e.Prepare(sqlText); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ApplyFeedback() // bump the epoch: overlay stale, structure intact
			p, err := e.Prepare(sqlText)
			if err != nil {
				b.Fatal(err)
			}
			if !p.Cached || p.OverlayCached {
				b.Fatalf("want structure hit + overlay rebuild, got cached=%v overlay_cached=%v", p.Cached, p.OverlayCached)
			}
		}
	})
	b.Run("Q9/coldprepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := engine.New(db(b), engine.WithCache(engine.NewSpaceCache(1)))
			if _, err := e.Prepare(sqlText); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable1 regenerates the paper's Table 1 (E1) and logs it.
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.Config{SampleSize: benchSamples(), Seed: 1}
	var rendered string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1All(db(b), &cfg)
		if err != nil {
			b.Fatal(err)
		}
		rendered = experiments.FormatTable1(rows)
	}
	b.Log("\n" + rendered)
}

// BenchmarkFigure4 regenerates the four panels of Figure 4 (E2).
func BenchmarkFigure4(b *testing.B) {
	cfg := experiments.Config{SampleSize: benchSamples(), Seed: 1}
	for _, q := range tpch.PaperQueries() {
		b.Run(q, func(b *testing.B) {
			var plot *experiments.Figure4Plot
			for i := 0; i < b.N; i++ {
				var err error
				plot, err = experiments.Figure4(db(b), q, false, 40, &cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.Log("\n" + plot.Render())
		})
	}
}

// BenchmarkExecuteOptimal measures the Volcano engine on the optimizer's
// plan for the two executable mid-size queries.
func BenchmarkExecuteOptimal(b *testing.B) {
	for _, q := range []string{"Q3", "Q10"} {
		b.Run(q, func(b *testing.B) {
			p := prepare(b, q, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.ExecuteWith(context.Background(), p.OptimalPlan(), exec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecute prices the governed execution path on Q5: the
// optimizer's plan against the median-cost plan of a uniform sample —
// the "optimal vs. typical sampled plan" latency gap that motivates
// sampling-based verification running under Governor budgets.
func BenchmarkExecute(b *testing.B) {
	p := prepare(b, "Q5", false)
	opts := exec.Options{Timeout: 30 * time.Second, MaxIntermediateRows: 100_000_000}

	// Median sampled plan by scaled cost among 101 seeded draws.
	smp, err := p.Sampler(17)
	if err != nil {
		b.Fatal(err)
	}
	type draw struct {
		rank *big.Int
		cost float64
	}
	draws := make([]draw, 101)
	for i := range draws {
		r := smp.NextRank()
		pl, err := p.Unrank(r)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := p.ScaledCost(pl)
		if err != nil {
			b.Fatal(err)
		}
		draws[i] = draw{rank: r, cost: sc}
	}
	sort.Slice(draws, func(i, j int) bool { return draws[i].cost < draws[j].cost })
	median := draws[len(draws)/2]
	medianPlan, err := p.Unrank(median.rank)
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, pl *plan.Node) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := p.ExecuteWith(context.Background(), pl, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Truncated {
				b.Fatalf("benchmark plan truncated: %+v", res.Stats)
			}
		}
	}
	b.Run("Q5/optimal", func(b *testing.B) { run(b, p.OptimalPlan()) })
	b.Run("Q5/median_sampled", func(b *testing.B) {
		b.Logf("median sampled plan: rank %s, scaled cost %.2f", median.rank, median.cost)
		run(b, medianPlan)
	})
}

// BenchmarkVerifySampled measures the Section 4 harness (E8): execute a
// uniform sample of plans and compare results.
func BenchmarkVerifySampled(b *testing.B) {
	sqlText, _ := tpch.Query("Q10")
	for i := 0; i < b.N; i++ {
		report, err := experiments.Verify(db(b), sqlText, 100, 5, 7)
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Mismatches) != 0 {
			b.Fatalf("mismatches: %v", report.Mismatches)
		}
	}
}

// BenchmarkPruningAblation runs E9 and logs the full-vs-retained counts.
func BenchmarkPruningAblation(b *testing.B) {
	sqlText, _ := tpch.Query("Q5")
	var ab *experiments.PruningAblation
	for i := 0; i < b.N; i++ {
		var err error
		ab, err = experiments.Prune(db(b), sqlText, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log(fmt.Sprintf("Q5: full space %s plans, pruning optimizer retains %s", ab.Full, ab.Retained))
}

// BenchmarkRuleAblation quantifies how much each implementation rule
// contributes to the space: it counts Q5's plans with one rule disabled
// at a time and logs the sizes (the design-choice ablation of DESIGN.md).
func BenchmarkRuleAblation(b *testing.B) {
	sqlText, _ := tpch.Query("Q5")
	type variant struct {
		name   string
		mutate func(*rules.Config)
	}
	variants := []variant{
		{"full", func(*rules.Config) {}},
		{"no_mergejoin", func(c *rules.Config) { c.EnableMergeJoin = false }},
		{"no_hashjoin", func(c *rules.Config) { c.EnableHashJoin = false }},
		{"no_nljoin", func(c *rules.Config) { c.EnableNLJoin = false }},
		{"no_lookupjoin", func(c *rules.Config) { c.EnableIndexNLJoin = false }},
		{"no_indexscan", func(c *rules.Config) { c.EnableIndexScan = false }},
		{"no_streamagg", func(c *rules.Config) { c.EnableStreamAgg = false }},
	}
	var report strings.Builder
	for i := 0; i < b.N; i++ {
		report.Reset()
		for _, v := range variants {
			cfg := rules.Default()
			v.mutate(&cfg)
			p, err := engine.New(db(b), engine.WithRules(cfg)).Prepare(sqlText)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Fprintf(&report, "%-14s %s plans\n", v.name, p.Count())
		}
	}
	b.Log("\nQ5 space size by rule ablation:\n" + report.String())
}
