package engine_test

import (
	"context"
	"encoding/json"
	"math/big"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tpch"
)

var dbCache *storage.DB

func tinyTPCH(t *testing.T) *storage.DB {
	t.Helper()
	if dbCache == nil {
		db, err := tpch.NewDB(0.0004, 42)
		if err != nil {
			t.Fatal(err)
		}
		dbCache = db
	}
	return dbCache
}

const smallJoin = `
	SELECT n_name, COUNT(l_orderkey) AS items
	FROM customer, orders, lineitem, nation
	WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND c_nationkey = n_nationkey
	GROUP BY n_name ORDER BY n_name`

func TestPrepareCountsAndOptimizes(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	p, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count().Sign() <= 0 {
		t.Fatal("empty search space")
	}
	if p.OptimalCost() <= 0 {
		t.Errorf("optimal cost = %g", p.OptimalCost())
	}
	if err := p.OptimalPlan().Validate(); err != nil {
		t.Errorf("optimal plan invalid: %v", err)
	}
	sc, err := p.ScaledCost(p.OptimalPlan())
	if err != nil {
		t.Fatal(err)
	}
	if sc < 0.999 || sc > 1.001 {
		t.Errorf("ScaledCost(optimal) = %g, want 1.0", sc)
	}
}

func TestUsePlanSelectsSpecificPlan(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	p, err := e.Prepare(smallJoin + " OPTION (USEPLAN 12345)")
	if err != nil {
		t.Fatal(err)
	}
	if p.UsePlan == nil || p.UsePlan.Int64() != 12345 {
		t.Fatalf("UsePlan = %v", p.UsePlan)
	}
	chosen, err := p.ChosenPlan()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := p.Unrank(big.NewInt(12345))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Equal(chosen, direct) {
		t.Error("ChosenPlan != Unrank(12345)")
	}
	// Executing the selected plan gives the same rows as the optimizer's.
	res, err := p.ExecuteWith(context.Background(), chosen, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.ExecuteWith(context.Background(), p.OptimalPlan(), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent(ref, 1e-9) {
		t.Error("USEPLAN result differs from optimizer result")
	}
}

func TestUsePlanOutOfRange(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	_, err := e.Prepare("SELECT r_name FROM region OPTION (USEPLAN 100000)")
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range USEPLAN: %v", err)
	}
}

func TestRunWithoutOptionUsesOptimal(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	res, err := e.Run("SELECT r_name FROM region ORDER BY r_name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || res.Rows[0][0].Str() != "AFRICA" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestPlanNumberingStableAcrossEngines(t *testing.T) {
	// Two independent engines over equal databases must agree on plan
	// numbering — the property that makes USEPLAN usable in scripts.
	db2, err := tpch.NewDB(0.0004, 42)
	if err != nil {
		t.Fatal(err)
	}
	e1 := engine.New(tinyTPCH(t))
	e2 := engine.New(db2)
	p1, err := e1.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e2.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Count().Cmp(p2.Count()) != 0 {
		t.Fatalf("counts differ: %s vs %s", p1.Count(), p2.Count())
	}
	for _, r := range []int64{0, 99, 31415} {
		a, err := p1.Unrank(big.NewInt(r))
		if err != nil {
			t.Fatal(err)
		}
		b, err := p2.Unrank(big.NewInt(r))
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest() != b.Digest() {
			t.Errorf("plan %d differs across engines", r)
		}
	}
}

func TestOptimalRankStable(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	p, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.OptimalRank()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.OptimalRank()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cmp(r2) != 0 {
		t.Errorf("optimal rank unstable: %s vs %s", r1, r2)
	}
}

func TestWithRulesOption(t *testing.T) {
	cfg := rules.Default()
	cfg.EnableIndexScan = false
	cfg.EnableMergeJoin = false
	e := engine.New(tinyTPCH(t), engine.WithRules(cfg))
	p, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	full := engine.New(tinyTPCH(t))
	pf, err := full.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count().Cmp(pf.Count()) >= 0 {
		t.Errorf("restricted rule set space (%s) not smaller than full (%s)", p.Count(), pf.Count())
	}
}

func TestCartesianOption(t *testing.T) {
	e := engine.New(tinyTPCH(t), engine.WithCartesian(true))
	p, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	noCross := engine.New(tinyTPCH(t))
	pn, err := noCross.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count().Cmp(pn.Count()) <= 0 {
		t.Errorf("cartesian space (%s) not larger than restricted (%s)", p.Count(), pn.Count())
	}
}

func TestPrepareErrors(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	for _, q := range []string{
		"SELEC x FROM region",
		"SELECT nosuch FROM region",
		"SELECT r_name FROM nosuchtable",
	} {
		if _, err := e.Prepare(q); err == nil {
			t.Errorf("Prepare(%q) succeeded", q)
		}
	}
}

func TestSamplerFromPrepared(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	p, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := p.Sampler(5)
	if err != nil {
		t.Fatal(err)
	}
	r, pl, err := smp.Next()
	if err != nil {
		t.Fatal(err)
	}
	if r.Sign() < 0 || r.Cmp(p.Count()) >= 0 {
		t.Errorf("sampled rank %s out of range", r)
	}
	if err := pl.Validate(); err != nil {
		t.Errorf("sampled plan invalid: %v", err)
	}
}

func TestExplainRendersCostsAndCards(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	p, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Explain(p.OptimalPlan())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rows=", "cost=", "self=", "Result"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// The root line's cumulative cost equals the plan cost.
	cost, err := p.PlanCost(p.OptimalPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, strings.Split(strings.TrimSpace(
		strings.SplitAfter(out, "cost=")[1]), " ")[0]) {
		t.Fatal("unparseable explain output")
	}
	_ = cost
	// Sampled plans explain too.
	smp, err := p.Sampler(3)
	if err != nil {
		t.Fatal(err)
	}
	_, pl, err := smp.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Explain(pl); err != nil {
		t.Errorf("explaining sampled plan: %v", err)
	}
}

func TestExportJSON(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	p, err := e.Prepare("SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TotalPlans string `json:"total_plans"`
		Groups     []struct {
			ID   int  `json:"id"`
			Root bool `json:"root"`
			Ops  []struct {
				Name       string     `json:"name"`
				Plans      string     `json:"plans"`
				Candidates [][]string `json:"candidates"`
			} `json:"operators"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if decoded.TotalPlans != p.Count().String() {
		t.Errorf("total_plans = %s, want %s", decoded.TotalPlans, p.Count())
	}
	rootSeen := false
	opCount := 0
	for _, g := range decoded.Groups {
		rootSeen = rootSeen || g.Root
		opCount += len(g.Ops)
	}
	if !rootSeen {
		t.Error("no root group in export")
	}
	if opCount != p.Space.OperatorCount() {
		t.Errorf("exported %d operators, space counted %d", opCount, p.Space.OperatorCount())
	}
}
