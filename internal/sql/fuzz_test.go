package sql

import (
	"testing"

	"repro/internal/tpch"
)

// FuzzParse checks that the parser never panics and that every accepted
// statement renders to SQL which parses back to the same rendering —
// the canonical form the engine fingerprints. Plain `go test` runs the
// seed corpus; `go test -fuzz FuzzParse ./internal/sql` explores.
func FuzzParse(f *testing.F) {
	for _, q := range tpch.QueryNames() {
		sqlText, _ := tpch.Query(q)
		f.Add(sqlText)
	}
	f.Add("SELECT a, SUM(b) AS s FROM t1, t2 x WHERE (a = 1 AND b < 2) GROUP BY a ORDER BY s DESC OPTION (USEPLAN 8)")
	f.Add("SELECT a FROM t WHERE b = 'it''s'")
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		rendered := stmt.String()
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", rendered, src, err)
		}
		if again := stmt2.String(); again != rendered {
			t.Fatalf("String not a fixpoint for %q:\n1: %s\n2: %s", src, rendered, again)
		}
	})
}
