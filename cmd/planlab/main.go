// Command planlab is the interactive face of the reproduction: it
// optimizes a query against a generated TPC-H database, counts the plans
// in the search space (Section 3 of the paper), and can dump the MEMO,
// explain the optimal plan, unrank specific plan numbers, sample plans
// uniformly, and execute any of them.
//
// Examples:
//
//	planlab -query Q5 -count
//	planlab -query Q9 -useplan 123456 -exec
//	planlab -query Q7 -sample 5
//	planlab -sql "SELECT ... OPTION (USEPLAN 8)" -exec
//	planlab -query Q3 -exec -exec-timeout 500ms -exec-maxwork 1000000
//	planlab -query Q3 -dump
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"os"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/tpch"
)

func main() {
	var (
		sf      = flag.Float64("sf", 0.001, "TPC-H scale factor")
		seed    = flag.Int64("seed", 42, "data generator seed")
		query   = flag.String("query", "", "named TPC-H query (Q3, Q5, Q6, Q7, Q8, Q9, Q10)")
		sqlText = flag.String("sql", "", "raw SQL text (overrides -query)")
		cross   = flag.Bool("cross", false, "allow Cartesian products in the join space")
		count   = flag.Bool("count", false, "print the number of plans")
		dump    = flag.Bool("dump", false, "dump the MEMO structure")
		explain = flag.Bool("explain", false, "print the optimal plan and its rank")
		jsonOut = flag.Bool("json", false, "dump the counted space (groups, operators, counts, links) as JSON")
		useplan = flag.String("useplan", "", "unrank this plan number and print it")
		enum    = flag.Int("enum", 0, "enumerate the first n plans in rank order and print them")
		sample  = flag.Int("sample", 0, "sample this many plans uniformly and print them")
		sseed   = flag.Int64("sample-seed", 1, "sampling seed")
		execute = flag.Bool("exec", false, "execute the selected plan (optimal, -useplan, or USEPLAN option) and print its digest and counters")
		execTO  = flag.Duration("exec-timeout", 0, "wall-clock budget for -exec (0 = none)")
		execMR  = flag.Int64("exec-maxrows", 0, "output row cap for -exec (0 = unlimited)")
		execMW  = flag.Int64("exec-maxwork", 0, "intermediate-row budget for -exec (0 = unlimited)")
		fback   = flag.Bool("feedback", false, "run the adaptive loop: execute the optimal plan, apply cardinality feedback, re-optimize, and show the before/after plan choice")
	)
	flag.Parse()
	lim := exec.Options{Timeout: *execTO, MaxRows: *execMR, MaxIntermediateRows: *execMW}
	if err := run(*sf, *seed, *query, *sqlText, *cross, *count, *dump, *explain, *jsonOut, *useplan, *enum, *sample, *sseed, *execute, *fback, lim); err != nil {
		fmt.Fprintln(os.Stderr, "planlab:", err)
		os.Exit(1)
	}
}

func run(sf float64, seed int64, query, sqlText string, cross, count, dump, explain, jsonOut bool,
	useplan string, enum, sample int, sseed int64, execute, fback bool, lim exec.Options) error {

	if sqlText == "" {
		if query == "" {
			return fmt.Errorf("provide -query (one of %s) or -sql", strings.Join(tpch.QueryNames(), ", "))
		}
		q, ok := tpch.Query(query)
		if !ok {
			return fmt.Errorf("unknown query %q; available: %s", query, strings.Join(tpch.QueryNames(), ", "))
		}
		sqlText = q
	}

	db, err := tpch.NewDB(sf, seed)
	if err != nil {
		return err
	}
	// One engine, one session — the same staged pipeline (parse →
	// fingerprint → cache → optimize → count) the plan-space server runs.
	sess := engine.New(db).Session(engine.WithCartesian(cross))
	p, err := sess.Prepare(sqlText)
	if err != nil {
		return err
	}

	st := p.Opt.Memo.Stats()
	fmt.Printf("space: %s plans | %d groups, %d logical + %d physical operators (%d enforcers) | arithmetic: %s\n",
		p.Count(), st.Groups, st.LogicalOps, st.PhysicalOps, st.EnforcerOps, p.Space.Arithmetic())
	fmt.Printf("fingerprint: %s\n", p.Fingerprint())

	if count {
		fmt.Printf("N = %s\n", p.Count())
	}
	if dump {
		fmt.Print(p.Opt.Memo.DumpAnnotated(p.Opt.Costing.CardOf))
	}
	if jsonOut {
		blob, err := p.ExportJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
	}
	if explain {
		rank, err := p.OptimalRank()
		if err != nil {
			return err
		}
		tree, err := p.Explain(p.OptimalPlan())
		if err != nil {
			return err
		}
		fmt.Printf("optimal plan (cost %.2f, rank %s):\n%s", p.OptimalCost(), rank, tree)
	}
	if useplan != "" {
		r, ok := new(big.Int).SetString(useplan, 10)
		if !ok {
			return fmt.Errorf("invalid plan number %q", useplan)
		}
		pl, err := p.Unrank(r)
		if err != nil {
			return err
		}
		sc, err := p.ScaledCost(pl)
		if err != nil {
			return err
		}
		fmt.Printf("plan %s (scaled cost %.3f):\n%s", r, sc, pl)
	}
	if enum > 0 {
		// EnumerateRange dispatches to the uint64 fast path internally
		// and slices huge spaces on the wide tier.
		var printErr error
		err := p.Space.EnumerateRange(big.NewInt(0), big.NewInt(int64(enum)), func(r *big.Int, pl *plan.Node) bool {
			sc, cerr := p.ScaledCost(pl)
			if cerr != nil {
				printErr = cerr
				return false
			}
			fmt.Printf("--- plan %s (scaled cost %.3f):\n%s", r, sc, pl)
			return true
		})
		if err != nil {
			return err
		}
		if printErr != nil {
			return printErr
		}
	}
	if sample > 0 {
		smp, err := p.Sampler(sseed)
		if err != nil {
			return err
		}
		for i := 0; i < sample; i++ {
			r, pl, err := smp.Next()
			if err != nil {
				return err
			}
			sc, err := p.ScaledCost(pl)
			if err != nil {
				return err
			}
			fmt.Printf("--- sampled plan %s (scaled cost %.3f)\n%s", r, sc, pl)
		}
	}
	if execute {
		chosen, err := p.ChosenPlan()
		if err != nil {
			return err
		}
		if useplan != "" {
			r, _ := new(big.Int).SetString(useplan, 10)
			chosen, err = p.Unrank(r)
			if err != nil {
				return err
			}
		}
		start := time.Now()
		res, err := p.ExecuteWith(context.Background(), chosen, lim)
		if err != nil {
			return err
		}
		fmt.Printf("%s(%d rows in %v)\n", res, len(res.Rows), time.Since(start).Round(time.Microsecond))
		fmt.Printf("digest: %s\n", res.Digest())
		fmt.Printf("rows produced: %d | rows examined: %d", res.Stats.RowsProduced, res.Stats.RowsExamined)
		if res.Stats.Truncated {
			fmt.Printf(" | TRUNCATED (%s)", res.Stats.Reason)
		}
		fmt.Println()
		fmt.Println("operator counters:")
		for _, op := range res.Stats.Operators {
			fmt.Printf("  %-6s %-32s %12d rows %8d opens\n", op.Name, op.Op, op.Rows, op.Opens)
		}
	}
	if fback {
		if err := feedbackLoop(sess, p, sqlText, lim); err != nil {
			return err
		}
	}
	return nil
}

// feedbackLoop demonstrates the adaptive re-optimization loop on one
// query: execute the optimizer's current choice (recording observed
// cardinalities), fold the feedback, re-cost the cached structure, and
// execute the possibly different new choice — printing the before/after
// ranks, estimated costs, and measured latencies.
func feedbackLoop(sess *engine.Session, p *engine.Prepared, sqlText string, lim exec.Options) error {
	eng := sess.Engine()
	rank, err := p.OptimalRank()
	if err != nil {
		return err
	}
	fmt.Printf("feedback: optimal before = rank %s (estimated cost %.2f)\n", rank, p.OptimalCost())
	start := time.Now()
	res, err := p.ExecuteWith(context.Background(), p.OptimalPlan(), lim)
	if err != nil {
		return err
	}
	before := time.Since(start)
	fmt.Printf("feedback: executed in %v (%d rows examined)\n", before.Round(time.Microsecond), res.Stats.RowsExamined)

	folded, epoch := eng.ApplyFeedback()
	fmt.Printf("feedback: applied %d correction(s), epoch %d\n", folded, epoch)
	for _, c := range eng.Feedback().Corrections() {
		fmt.Printf("  %-60s x%.4g (%d obs)\n", c.Key, c.Factor, c.Observations)
	}

	p2, err := sess.Prepare(sqlText)
	if err != nil {
		return err
	}
	if !p2.Cached || p2.OverlayCached {
		return fmt.Errorf("feedback: expected a structure hit with an overlay re-cost, got cached=%v overlay_cached=%v", p2.Cached, p2.OverlayCached)
	}
	rank2, err := p2.OptimalRank()
	if err != nil {
		return err
	}
	fmt.Printf("feedback: optimal after  = rank %s (estimated cost %.2f)\n", rank2, p2.OptimalCost())
	start = time.Now()
	res2, err := p2.ExecuteWith(context.Background(), p2.OptimalPlan(), lim)
	if err != nil {
		return err
	}
	after := time.Since(start)
	changed := "unchanged"
	if rank.Cmp(rank2) != 0 {
		changed = "CHANGED"
	}
	fmt.Printf("feedback: plan choice %s | latency before %v, after %v | rows examined before %d, after %d\n",
		changed, before.Round(time.Microsecond), after.Round(time.Microsecond),
		res.Stats.RowsExamined, res2.Stats.RowsExamined)
	return nil
}
