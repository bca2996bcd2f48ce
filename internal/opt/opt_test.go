package opt

import (
	"math/big"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/sql"
)

func optSchema() *catalog.Catalog {
	c := catalog.New()
	mk := func(name string, rows int64, cols ...string) {
		t := &catalog.Table{Name: name, RowCount: rows, AvgRowBytes: 48}
		for i, cn := range cols {
			ndv := rows
			if i > 0 {
				ndv = rows / 2
			}
			if ndv < 1 {
				ndv = 1
			}
			t.Columns = append(t.Columns, catalog.Column{
				Name: cn, Kind: data.KindInt,
				Stats: catalog.ColumnStats{NDV: ndv, Min: data.NewInt(0), Max: data.NewInt(rows)},
			})
		}
		t.Indexes = []catalog.Index{{Name: "pk_" + name, KeyCols: []int{0}}}
		c.MustAdd(t)
	}
	mk("a", 1000, "ak", "ab")
	mk("b", 100, "bk", "bc")
	mk("c", 10, "ck", "cv")
	return c
}

func optimize(t *testing.T, text string, opts Options) *Result {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Build(stmt, optSchema())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const joinQuery = "SELECT ak FROM a, b, c WHERE ab = bk AND bc = ck"

// TestOptimalIsBruteForceMinimum is the strongest optimizer test: the
// DP winner's cost must equal the minimum cost over *every* plan in the
// exhaustively enumerated space, and the winner must sit at the rank the
// space assigns it.
func TestOptimalIsBruteForceMinimum(t *testing.T) {
	res := optimize(t, joinQuery, DefaultOptions())
	s, err := core.Prepare(res.Memo)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Count().IsInt64() || s.Count().Int64() > 2_000_000 {
		t.Fatalf("space too large for brute force: %s", s.Count())
	}
	best := -1.0
	var bestPlan *plan.Node
	err = s.Enumerate(func(_ *big.Int, p *plan.Node) bool {
		c, err := p.Cost(res.Model)
		if err != nil {
			t.Fatalf("costing enumerated plan: %v", err)
		}
		if best < 0 || c < best {
			best, bestPlan = c, p
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.BestCost - best; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("optimizer best %.6f != brute force min %.6f\noptimizer:\n%s\nbrute force:\n%s",
			res.BestCost, best, res.Best, bestPlan)
	}
	// The optimizer's plan must be a member of the space.
	if _, err := s.Rank(res.Best); err != nil {
		t.Errorf("optimal plan not rankable: %v", err)
	}
}

func TestOptimalPlanValidates(t *testing.T) {
	res := optimize(t, joinQuery, DefaultOptions())
	if err := res.Best.Validate(); err != nil {
		t.Errorf("optimal plan invalid: %v", err)
	}
	if res.BestCost <= 0 {
		t.Errorf("best cost = %g", res.BestCost)
	}
}

func TestOptimalWithOrderByAndAgg(t *testing.T) {
	res := optimize(t, "SELECT ab, COUNT(*) AS n FROM a, b WHERE ab = bk GROUP BY ab ORDER BY ab", DefaultOptions())
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("optimal plan invalid: %v", err)
	}
	// The root must deliver the requested order one way or another: either
	// a self-sorting Result or a streaming Result over an ordered child.
	root := res.Best.Expr
	if root.Op != memo.Result {
		t.Fatalf("root op = %s", root.Op)
	}
	if root.SortOrder.IsNone() && (len(root.Required) == 0 || root.Required[0].IsNone()) {
		t.Error("root neither sorts nor requires order for ORDER BY query")
	}
}

func TestCardsAnnotatedOnAllGroups(t *testing.T) {
	res := optimize(t, joinQuery, DefaultOptions())
	tab := res.Costing.Tables
	for _, g := range res.Memo.Groups {
		if card := tab.CardOf(g); card <= 0 {
			t.Errorf("group %d has card %g", g.ID, card)
		}
	}
	// Local costs set on all physical operators.
	for _, g := range res.Memo.Groups {
		for _, e := range g.Physical {
			if tab.Locals[e.ID] < 0 {
				t.Errorf("operator %s has negative local cost", e.Name())
			}
		}
	}
}

// TestRetainedExprsShrinkSpace checks the E9 ablation: a pruning
// optimizer's retained operators span a dramatically smaller space that
// still contains the optimal plan.
func TestRetainedExprsShrinkSpace(t *testing.T) {
	res := optimize(t, joinQuery, DefaultOptions())
	full, err := core.Prepare(res.Memo)
	if err != nil {
		t.Fatal(err)
	}
	retained := res.RetainedExprs()
	pruned, err := core.Prepare(res.Memo, core.WithFilter(func(e *memo.Expr) bool { return retained[e] }))
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Count().Cmp(full.Count()) >= 0 {
		t.Errorf("pruned space (%s) not smaller than full (%s)", pruned.Count(), full.Count())
	}
	if pruned.Count().Sign() <= 0 {
		t.Error("pruned space is empty; it must still contain the optimal plan")
	}
	// The optimal plan must be rankable in the pruned space.
	if _, err := pruned.Rank(res.Best); err != nil {
		t.Errorf("optimal plan missing from pruned space: %v", err)
	}
}

func TestCrossProductSpaceIsLarger(t *testing.T) {
	full := optimize(t, joinQuery, DefaultOptions())
	crossOpts := DefaultOptions()
	crossOpts.Rules.AllowCartesian = true
	cross := optimize(t, joinQuery, crossOpts)

	sFull, err := core.Prepare(full.Memo)
	if err != nil {
		t.Fatal(err)
	}
	sCross, err := core.Prepare(cross.Memo)
	if err != nil {
		t.Fatal(err)
	}
	if sCross.Count().Cmp(sFull.Count()) <= 0 {
		t.Errorf("cross space %s not larger than %s", sCross.Count(), sFull.Count())
	}
	// The optimum should not get worse by considering more plans.
	if cross.BestCost > full.BestCost+1e-9 {
		t.Errorf("cross-product optimum %.4f worse than restricted optimum %.4f", cross.BestCost, full.BestCost)
	}
}

// TestDeterministicOptimization: same query, same options — identical
// plan, cost, and numbering across runs (Section 4's regression scripts
// depend on it).
func TestDeterministicOptimization(t *testing.T) {
	a := optimize(t, joinQuery, DefaultOptions())
	b := optimize(t, joinQuery, DefaultOptions())
	if a.BestCost != b.BestCost {
		t.Errorf("costs differ: %g vs %g", a.BestCost, b.BestCost)
	}
	if a.Best.Digest() != b.Best.Digest() {
		t.Error("optimal plan digests differ across runs")
	}
	if a.Memo.DumpAnnotated(a.Costing.CardOf) != b.Memo.DumpAnnotated(b.Costing.CardOf) {
		t.Error("memo dumps differ across runs")
	}
}

// TestRulesConfigReducesWinnerChoices: disabling every join but nested
// loops must still produce a valid optimal plan using only NL joins.
func TestNLOnlyOptimization(t *testing.T) {
	opts := DefaultOptions()
	opts.Rules.EnableHashJoin = false
	opts.Rules.EnableMergeJoin = false
	res := optimize(t, joinQuery, opts)
	for _, op := range res.Best.Operators() {
		if op.Op == memo.HashJoin || op.Op == memo.MergeJoin {
			t.Errorf("disabled join %s in optimal plan", op.Op)
		}
	}
	if err := res.Best.Validate(); err != nil {
		t.Error(err)
	}
}
