// USEPLAN: the paper's Section 4 SQL extension. The statement's
// OPTION (USEPLAN n) clause makes the engine build the MEMO, count the
// plans, and execute plan number n instead of the optimizer's choice —
// the loop below is exactly the scripting pattern the paper describes
// for generating regression tests.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/tpch"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db, err := tpch.NewDB(0.0004, 42)
	if err != nil {
		return err
	}
	sess := engine.New(db).Session()
	ctx := context.Background()

	// The query from the paper's Section 4, transposed onto TPC-H: which
	// nations did customer 13's purchases ship from?
	base := `
		SELECT n_name, COUNT(l_orderkey) AS items
		FROM customer, orders, lineitem, supplier, nation
		WHERE c_custkey = o_custkey
		  AND o_orderkey = l_orderkey
		  AND l_suppkey = s_suppkey
		  AND s_nationkey = n_nationkey
		  AND c_custkey = 13
		GROUP BY n_name
		ORDER BY n_name`

	p, err := sess.Prepare(base)
	if err != nil {
		return err
	}
	fmt.Printf("query has %s plans\n\n", p.Count())

	ref, err := sess.Execute(ctx, base, engine.ExecOptions{})
	if err != nil {
		return err
	}
	reference := ref.Result
	fmt.Printf("optimizer's plan:\n%s\n", reference)

	// Iterate a deterministic selection of plan numbers through the SQL
	// interface itself, comparing all results against the optimizer's.
	for _, n := range []int64{0, 7, 8, 1000, 999999} {
		stmt := fmt.Sprintf("%s OPTION (USEPLAN %d)", base, n)
		x, err := sess.Execute(ctx, stmt, engine.ExecOptions{})
		if err != nil {
			return fmt.Errorf("USEPLAN %d: %w", n, err)
		}
		res := x.Result
		status := "OK (same result)"
		if !res.Equivalent(reference, 1e-9) {
			status = "MISMATCH — optimizer or executor bug!"
		}
		fmt.Printf("OPTION (USEPLAN %7d): %d rows, %s\n", n, len(res.Rows), status)
	}

	// Out-of-range plan numbers are rejected with the space size.
	_, err = sess.Execute(ctx, base+" OPTION (USEPLAN 99999999999999999999999999)", engine.ExecOptions{})
	fmt.Printf("\nout-of-range USEPLAN is rejected: %v\n", err)
	return nil
}
