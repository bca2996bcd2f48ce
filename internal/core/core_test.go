package core

import (
	"math/big"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/memo"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sql"
)

// starSchema: fact joined to three dimensions — a richer join graph than
// the fixture, with indexes so property-constrained candidates appear.
func starSchema() *catalog.Catalog {
	c := catalog.New()
	mk := func(name string, rows int64, cols ...string) {
		t := &catalog.Table{Name: name, RowCount: rows, AvgRowBytes: 40}
		for _, cn := range cols {
			t.Columns = append(t.Columns, catalog.Column{
				Name: cn, Kind: data.KindInt,
				Stats: catalog.ColumnStats{NDV: rows, Min: data.NewInt(0), Max: data.NewInt(rows)},
			})
		}
		t.Indexes = []catalog.Index{{Name: "pk_" + name, KeyCols: []int{0}}}
		c.MustAdd(t)
	}
	mk("fact", 10000, "f1", "f2", "f3")
	mk("d1", 100, "k1", "v1")
	mk("d2", 50, "k2", "v2")
	mk("d3", 20, "k3", "v3")
	return c
}

func prepared(t *testing.T, text string) (*Space, *opt.Costing) {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Build(stmt, starSchema())
	if err != nil {
		t.Fatal(err)
	}
	opts := opt.DefaultOptions()
	st, err := opt.BuildStructure(q, opts.Rules)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Cost(opts.Params, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Prepare(res.Memo)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

const starQuery = "SELECT v1 FROM fact, d1, d2, d3 WHERE f1 = k1 AND f2 = k2 AND f3 = k3"

// TestRankUnrankBijectionSampled: on a space far too large to enumerate,
// uniform samples must round-trip Rank(Unrank(r)) == r, and every plan
// must validate.
func TestRankUnrankBijectionSampled(t *testing.T) {
	s, _ := prepared(t, starQuery)
	if s.Count().Sign() <= 0 {
		t.Fatalf("empty space")
	}
	smp, err := s.NewSampler(99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		r := smp.NextRank()
		p, err := s.Unrank(r)
		if err != nil {
			t.Fatalf("Unrank(%s): %v", r, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("plan %s invalid: %v", r, err)
		}
		back, err := s.Rank(p)
		if err != nil {
			t.Fatalf("Rank: %v", err)
		}
		if back.Cmp(r) != 0 {
			t.Fatalf("Rank(Unrank(%s)) = %s", r, back)
		}
	}
}

// TestCountMatchesExhaustiveDistinctness on a small space: N equals the
// number of pairwise-distinct enumerated plans.
func TestCountMatchesExhaustiveDistinctness(t *testing.T) {
	s, _ := prepared(t, "SELECT v1 FROM fact, d1 WHERE f1 = k1")
	n := s.Count()
	if !n.IsInt64() || n.Int64() > 100000 {
		t.Fatalf("space unexpectedly large: %s", n)
	}
	seen := make(map[string]bool)
	err := s.Enumerate(func(_ *big.Int, p *plan.Node) bool {
		seen[p.Digest()] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(seen)) != n.Int64() {
		t.Errorf("count %s but %d distinct plans", n, len(seen))
	}
}

// TestCountingVisitsEachOperatorOnce: the paper's complexity claim —
// counting is linear in MEMO size. OperatorCount must equal the number
// of physical operators.
func TestCountingVisitsEachOperatorOnce(t *testing.T) {
	s, res := prepared(t, starQuery)
	want := res.Memo.Stats().PhysicalOps
	if got := s.OperatorCount(); got != want {
		t.Errorf("counted %d operators, memo has %d physical", got, want)
	}
}

func TestEnumerateRange(t *testing.T) {
	s, _ := prepared(t, "SELECT v1 FROM fact, d1 WHERE f1 = k1")
	var ranks []int64
	err := s.EnumerateRange(big.NewInt(5), big.NewInt(9), func(r *big.Int, _ *plan.Node) bool {
		ranks = append(ranks, r.Int64())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 4 || ranks[0] != 5 || ranks[3] != 8 {
		t.Errorf("range ranks = %v", ranks)
	}
	// Early termination via yield.
	count := 0
	err = s.Enumerate(func(*big.Int, *plan.Node) bool {
		count++
		return count < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("yield-false did not stop enumeration: %d", count)
	}
}

// TestEnumerateRangeClamps: on both tiers the requested range is
// clamped to [0, N), so a negative lo starts at rank 0, a negative hi
// yields nothing, and hi beyond N stops at the last rank.
func TestEnumerateRangeClamps(t *testing.T) {
	_, res := prepared(t, "SELECT v1 FROM fact, d1 WHERE f1 = k1")
	for _, tier := range []struct {
		name string
		opts []Option
	}{{"uint64", nil}, {"wide", []Option{WithWideArithmetic()}}} {
		s, err := Prepare(res.Memo, tier.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if s.Arithmetic() != tier.name {
			t.Fatalf("tier = %s, want %s", s.Arithmetic(), tier.name)
		}
		n := s.Count().Int64()
		for _, c := range []struct {
			name         string
			lo, hi       int64
			first, count int64
		}{
			{"lo<0", -2, 3, 0, 3},
			{"hi<0", 0, -1, 0, 0},
			{"lo<0,hi<0", -5, -2, 0, 0},
			{"hi>N", n - 2, n + 5, n - 2, 2},
			{"lo<0,hi>N", -1, n + 1, 0, n},
			{"lo>=N", n, n + 5, 0, 0},
		} {
			t.Run(tier.name+"/"+c.name, func(t *testing.T) {
				var ranks []int64
				err := s.EnumerateRange(big.NewInt(c.lo), big.NewInt(c.hi), func(r *big.Int, p *plan.Node) bool {
					want, err := s.Unrank(r)
					if err != nil || !plan.Equal(p, want) {
						t.Fatalf("rank %s: enumerated plan differs from Unrank (%v)", r, err)
					}
					ranks = append(ranks, r.Int64())
					return true
				})
				if err != nil {
					t.Fatalf("EnumerateRange(%d, %d): %v", c.lo, c.hi, err)
				}
				if int64(len(ranks)) != c.count {
					t.Fatalf("EnumerateRange(%d, %d) yielded %d plans, want %d", c.lo, c.hi, len(ranks), c.count)
				}
				for i, r := range ranks {
					if r != c.first+int64(i) {
						t.Fatalf("EnumerateRange(%d, %d) ranks = %v, want %d.. in order", c.lo, c.hi, ranks, c.first)
					}
				}
			})
		}
	}
}

// TestConcurrentUnrank: a Space is immutable after Prepare and safe for
// concurrent use (run with -race).
func TestConcurrentUnrank(t *testing.T) {
	s, _ := prepared(t, starQuery)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			smp, err := s.NewSampler(seed)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				r := smp.NextRank()
				p, err := s.Unrank(r)
				if err != nil {
					t.Errorf("Unrank: %v", err)
					return
				}
				back, err := s.Rank(p)
				if err != nil || back.Cmp(r) != 0 {
					t.Errorf("round trip failed: %v", err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestSamplerDeterminism: same seed, same sequence of ranks.
func TestSamplerDeterminism(t *testing.T) {
	s, _ := prepared(t, starQuery)
	a, err := s.NewSampler(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewSampler(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.NextRank().Cmp(b.NextRank()) != 0 {
			t.Fatal("samplers with equal seeds diverged")
		}
	}
	c, err := s.NewSampler(43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 10; i++ {
		if a.NextRank().Cmp(c.NextRank()) != 0 {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// TestSampleBatch draws k plans with replacement.
func TestSampleBatch(t *testing.T) {
	s, _ := prepared(t, starQuery)
	smp, err := s.NewSampler(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		r, p, err := smp.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("sampled plan %s invalid: %v", r, err)
		}
		if back, err := s.Rank(p); err != nil || back.Cmp(r) != 0 {
			t.Errorf("sampled plan %s ranks to %s, %v", r, back, err)
		}
	}
}

// TestRankRejectsForeignPlan: plans built from another memo's operators
// must be rejected, not mis-ranked.
func TestRankRejectsForeignPlan(t *testing.T) {
	s1, _ := prepared(t, "SELECT v1 FROM fact, d1 WHERE f1 = k1")
	_, res2 := prepared(t, "SELECT v2 FROM fact, d2 WHERE f2 = k2")
	if _, err := s1.Rank(res2.Best); err == nil {
		t.Error("ranking a foreign plan succeeded")
	}
}

// TestOptimalRankRoundTrip: the optimizer's plan has a rank and unranking
// that rank reproduces the plan exactly — "what number is the plan the
// optimizer chose?"
func TestOptimalRankRoundTrip(t *testing.T) {
	s, res := prepared(t, starQuery)
	r, err := s.Rank(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Unrank(r)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Equal(p, res.Best) {
		t.Error("Unrank(Rank(best)) != best")
	}
}

// TestPrepareRequiresRoot guards the error path.
func TestPrepareRequiresRoot(t *testing.T) {
	q := algebra.NewQuery()
	m := memo.New(q)
	if _, err := Prepare(m); err == nil {
		t.Error("Prepare on rootless memo succeeded")
	}
}
