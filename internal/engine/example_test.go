package engine_test

import (
	"context"
	"fmt"
	"log"
	"math/big"
	"strings"

	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Example_quickstart builds a tiny database, optimizes a 3-way join,
// counts the execution plans the optimizer considered, unranks a few by
// number, and executes them: all plans must return the same rows.
func Example_quickstart() {
	// A miniature school schema: the paper's Section 4 example joins
	// professors, students, enrollments, and courses.
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "students",
		Columns: []catalog.Column{
			{Name: "sid", Kind: data.KindInt},
			{Name: "sname", Kind: data.KindString},
		},
		Indexes:     []catalog.Index{{Name: "pk_students", KeyCols: []int{0}, Unique: true}},
		AvgRowBytes: 40,
	})
	cat.MustAdd(&catalog.Table{
		Name: "enrolled",
		Columns: []catalog.Column{
			{Name: "esid", Kind: data.KindInt},
			{Name: "title", Kind: data.KindString},
			{Name: "grade", Kind: data.KindInt},
		},
		Indexes:     []catalog.Index{{Name: "idx_enrolled_sid", KeyCols: []int{0}}},
		AvgRowBytes: 48,
	})
	cat.MustAdd(&catalog.Table{
		Name: "courses",
		Columns: []catalog.Column{
			{Name: "ctitle", Kind: data.KindString},
			{Name: "credits", Kind: data.KindInt},
		},
		Indexes:     []catalog.Index{{Name: "pk_courses", KeyCols: []int{0}, Unique: true}},
		AvgRowBytes: 40,
	})

	db := storage.NewDB(cat)
	students, _ := db.CreateTable("students")
	enrolled, _ := db.CreateTable("enrolled")
	courses, _ := db.CreateTable("courses")

	names := []string{"Sam White", "Ada Lovelace", "Edgar Codd", "Grace Hopper"}
	for i, n := range names {
		if err := students.Insert(data.Row{data.NewInt(int64(i + 1)), data.NewString(n)}); err != nil {
			log.Fatal(err)
		}
	}
	courseList := []struct {
		title   string
		credits int64
	}{{"Databases", 6}, {"Compilers", 6}, {"Queueing Theory", 4}}
	for _, c := range courseList {
		if err := courses.Insert(data.Row{data.NewString(c.title), data.NewInt(c.credits)}); err != nil {
			log.Fatal(err)
		}
	}
	enrollments := []struct {
		sid   int64
		title string
		grade int64
	}{
		{1, "Databases", 1}, {1, "Compilers", 2},
		{2, "Databases", 1}, {2, "Queueing Theory", 1},
		{3, "Databases", 1}, {4, "Compilers", 3},
	}
	for _, e := range enrollments {
		if err := enrolled.Insert(data.Row{data.NewInt(e.sid), data.NewString(e.title), data.NewInt(e.grade)}); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.ComputeStats(); err != nil {
		log.Fatal(err)
	}

	// Optimize: the engine builds the MEMO, counts the plans it encodes,
	// and picks the cheapest one.
	e := engine.New(db)
	p, err := e.Prepare(`
		SELECT sname, ctitle, credits
		FROM students, enrolled, courses
		WHERE sid = esid AND title = ctitle AND grade <= 2
		ORDER BY sname, ctitle`)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("The optimizer considered %s execution plans.\n\n", p.Count())

	rank, err := p.OptimalRank()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Optimal plan is number %s (cost %.2f):\n%s\n", rank, p.OptimalCost(), p.OptimalPlan())

	// Unrank a few plan numbers and execute them: every plan must return
	// the same rows (the paper's testing methodology).
	reference, err := p.ExecuteWith(context.Background(), p.OptimalPlan(), exec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Result (%d rows):\n%s\n", len(reference.Rows), trimLines(reference.String()))

	total := p.Count().Int64()
	for _, r := range []int64{0, total / 3, 2 * total / 3, total - 1} {
		pl, err := p.Unrank(big.NewInt(r))
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.ExecuteWith(context.Background(), pl, exec.Options{})
		if err != nil {
			log.Fatal(err)
		}
		match := "MATCHES"
		if !res.Equivalent(reference, 1e-9) {
			match = "DIFFERS (bug!)"
		}
		sc, err := p.ScaledCost(pl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("plan %6d: scaled cost %8.2f, result %s optimal plan's\n", r, sc, match)
	}

	// Output:
	// The optimizer considered 28560 execution plans.
	//
	// Optimal plan is number 0 (cost 3.57):
	// 7.2 Result delivers=(#1,#5)
	//   6.2 HashJoin[1 preds]
	//     5.2 HashJoin[1 preds]
	//       3.2 TableScan(courses)
	//       2.2 TableScan(enrolled)
	//     1.2 TableScan(students)
	//
	// Result (5 rows):
	// sname         ctitle           credits
	// ------------  ---------------  -------
	// Ada Lovelace  Databases        6
	// Ada Lovelace  Queueing Theory  4
	// Edgar Codd    Databases        6
	// Sam White     Compilers        6
	// Sam White     Databases        6
	//
	// plan      0: scaled cost     1.00, result MATCHES optimal plan's
	// plan   9520: scaled cost     1.03, result MATCHES optimal plan's
	// plan  19040: scaled cost     1.00, result MATCHES optimal plan's
	// plan  28559: scaled cost    19.70, result MATCHES optimal plan's
}

// Example_useplan drives the paper's Section 4 SQL extension. The
// statement's OPTION (USEPLAN n) clause makes the engine build the
// MEMO, count the plans, and execute plan number n instead of the
// optimizer's choice; the loop below is the scripting pattern the paper
// describes for generating regression tests.
func Example_useplan() {
	db, err := tpch.NewDB(0.0004, 42)
	if err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}
	fmt.Printf("query has %s plans\n\n", p.Count())

	ref, err := sess.Execute(ctx, base, engine.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	reference := ref.Result
	fmt.Printf("optimizer's plan:\n%s\n", trimLines(reference.String()))

	// Iterate a deterministic selection of plan numbers through the SQL
	// interface itself, comparing all results against the optimizer's.
	for _, n := range []int64{0, 7, 8, 1000, 999999} {
		stmt := fmt.Sprintf("%s OPTION (USEPLAN %d)", base, n)
		x, err := sess.Execute(ctx, stmt, engine.ExecOptions{})
		if err != nil {
			log.Fatalf("USEPLAN %d: %v", n, err)
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

	// Output:
	// query has 46395146660 plans
	//
	// optimizer's plan:
	// n_name          items
	// --------------  -----
	// ALGERIA         10
	// MOROCCO         9
	// SAUDI ARABIA    14
	// UNITED KINGDOM  21
	//
	// OPTION (USEPLAN       0): 4 rows, OK (same result)
	// OPTION (USEPLAN       7): 4 rows, OK (same result)
	// OPTION (USEPLAN       8): 4 rows, OK (same result)
	// OPTION (USEPLAN    1000): 4 rows, OK (same result)
	// OPTION (USEPLAN  999999): 4 rows, OK (same result)
	//
	// out-of-range USEPLAN is rejected: engine: USEPLAN 99999999999999999999999999 out of range: query has 46395146660 plans
}

// trimLines drops the trailing blanks of a padded result table, which
// an example's expected output cannot hold.
func trimLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}
