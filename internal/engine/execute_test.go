package engine_test

import (
	"context"
	"math/big"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/tpch"
)

// TestExecuteGoldenTable1 pins the paper's verification invariant on
// the real workload: for every Table-1 query, the optimizer's plan and
// five seeded uniformly sampled plans must produce the same multiset of
// rows (Result.Equivalent) — plan choice must never change answers.
// Everything runs through Session.Execute, i.e. the same
// prepare-through-cache + unrank + governed-run path /execute serves.
func TestExecuteGoldenTable1(t *testing.T) {
	db := tinyTPCH(t)
	e := engine.New(db)
	sess := e.Session()
	for _, q := range tpch.PaperQueries() {
		q := q
		t.Run(q, func(t *testing.T) {
			sqlText, ok := tpch.Query(q)
			if !ok {
				t.Fatalf("unknown query %s", q)
			}
			optimal, err := sess.Execute(context.Background(), sqlText, engine.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if optimal.Result.Stats.Truncated {
				t.Fatalf("optimal plan truncated: %+v", optimal.Result.Stats)
			}
			if optimal.ScaledCost < 0.999 || optimal.ScaledCost > 1.001 {
				t.Errorf("optimal scaled cost = %g, want 1.0", optimal.ScaledCost)
			}
			smp, err := optimal.Prepared.Sampler(7)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				rank := smp.NextRank()
				exe, err := sess.Execute(context.Background(), sqlText, engine.ExecOptions{Rank: rank})
				if err != nil {
					t.Fatalf("sampled plan %s: %v", rank, err)
				}
				if exe.Result.Stats.Truncated {
					t.Fatalf("sampled plan %s truncated: %+v", rank, exe.Result.Stats)
				}
				if !exe.Result.Equivalent(optimal.Result, 1e-9) {
					t.Errorf("sampled plan %s produced different rows than the optimal plan:\n%s",
						rank, exe.Plan)
				}
				if exe.ScaledCost < 0.999 {
					t.Errorf("sampled plan %s scaled cost %g below the optimum", rank, exe.ScaledCost)
				}
			}
			if !optimal.Prepared.Cached {
				// The very first Execute of this query built the space;
				// every sampled execution above must have ridden the cache.
				st := e.Cache().Stats()
				if st.Hits == 0 {
					t.Error("sampled executions did not hit the space cache")
				}
			}
		})
	}
}

// TestExecuteResolvesUseplan: OPTION (USEPLAN n) in the SQL selects the
// numbered plan through Session.Execute, and an explicit Rank overrides
// it.
func TestExecuteResolvesUseplan(t *testing.T) {
	db := tinyTPCH(t)
	sess := engine.New(db).Session()
	exe, err := sess.Execute(context.Background(), smallJoin+" OPTION (USEPLAN 12345)", engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if exe.Rank.Int64() != 12345 {
		t.Errorf("executed rank %s, want 12345", exe.Rank)
	}
	direct, err := exe.Prepared.Unrank(big.NewInt(12345))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exe.Prepared.ExecuteWith(context.Background(), direct, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest() != exe.Result.Digest() {
		t.Error("USEPLAN execution differs from direct unrank+execute")
	}

	override, err := sess.Execute(context.Background(), smallJoin+" OPTION (USEPLAN 12345)",
		engine.ExecOptions{Rank: big.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	if override.Rank.Int64() != 7 {
		t.Errorf("rank override executed %s, want 7", override.Rank)
	}

	if _, err := sess.Execute(context.Background(), smallJoin,
		engine.ExecOptions{Rank: new(big.Int).Neg(big.NewInt(1))}); err == nil {
		t.Error("negative rank accepted")
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 80)
	if _, err := sess.Execute(context.Background(), smallJoin, engine.ExecOptions{Rank: huge}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

// crossProduct is a deliberately pathological statement: no join
// predicates at all, so every plan is a chain of cross products over
// ~2400 × 600 × 60 rows — far beyond any sane budget at this scale.
const crossProduct = "SELECT COUNT(l_orderkey) AS n FROM lineitem, orders, customer"

// TestGovernorKillsCrossProduct: the Governor must cut a cross-product
// plan off — by wall clock and by intermediate-row budget — instead of
// letting it run for minutes.
func TestGovernorKillsCrossProduct(t *testing.T) {
	db := tinyTPCH(t)
	sess := engine.New(db).Session(engine.WithCartesian(true))

	t.Run("deadline", func(t *testing.T) {
		start := time.Now()
		exe, err := sess.Execute(context.Background(), crossProduct,
			engine.ExecOptions{Timeout: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if !exe.Result.Stats.Truncated || exe.Result.Stats.Reason != exec.ReasonDeadline {
			t.Fatalf("stats = %+v, want truncated deadline_exceeded", exe.Result.Stats)
		}
		if elapsed > 5*time.Second {
			t.Errorf("deadline enforcement took %v for a 100ms budget", elapsed)
		}
	})

	t.Run("work_budget", func(t *testing.T) {
		exe, err := sess.Execute(context.Background(), crossProduct,
			engine.ExecOptions{MaxIntermediateRows: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		st := exe.Result.Stats
		if !st.Truncated || st.Reason != exec.ReasonWorkBudget {
			t.Fatalf("stats = %+v, want truncated work_budget_exceeded", st)
		}
		if st.RowsExamined > 100_000+int64(exec.DefaultCheckEvery) {
			t.Errorf("examined %d rows against a budget of 100000", st.RowsExamined)
		}
	})

	t.Run("cancel_mid_flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		exe, err := sess.Execute(ctx, crossProduct, engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !exe.Result.Stats.Truncated || exe.Result.Stats.Reason != exec.ReasonCanceled {
			t.Fatalf("stats = %+v, want truncated canceled", exe.Result.Stats)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("cancellation took %v to take effect", elapsed)
		}
	})
}
