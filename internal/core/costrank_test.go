package core_test

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fixture"
	"repro/internal/plan"
)

// Cost by rank must equal unrank + plan.Node.CostWith bit for bit: the
// walks take the same digits and feed Combine the same child costs in
// the same order. Every check below compares float64 bit patterns, not
// values within a tolerance.

// treeCost is the reference: build the plan in a fresh arena and cost
// the tree.
func treeCost(t *testing.T, s *core.Space, m *cost.Model, r *big.Int) float64 {
	t.Helper()
	var a core.Arena
	pl, err := s.UnrankBigInto(r, &a)
	if err != nil {
		t.Fatalf("unrank %s: %v", r, err)
	}
	c, err := pl.CostWith(m, &plan.CostBuf{})
	if err != nil {
		t.Fatalf("cost of %s: %v", r, err)
	}
	return c
}

// rankCost reads the cost of r off its rank (CostWideInto), and checks
// that the uint64 adapter (CostInto) agrees bit for bit when r fits.
func rankCost(t *testing.T, s *core.Space, m *cost.Model, r *big.Int, a *core.Arena) float64 {
	t.Helper()
	c, err := s.CostWideInto(core.LimbsOf(r), m, a)
	if err != nil {
		t.Fatalf("cost by rank %s: %v", r, err)
	}
	if r.IsUint64() {
		c64, err := s.CostInto(r.Uint64(), m, a)
		if err != nil {
			t.Fatalf("CostInto(%s): %v", r, err)
		}
		sameBits(t, "CostInto", r, c64, c)
	}
	return c
}

func sameBits(t *testing.T, what string, r *big.Int, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s rank %s: cost by rank %v (%#x), unrank+CostWith %v (%#x)",
			what, r, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// fixtureModel costs the paper fixture with distinct cardinalities per
// group, so nested-loop rescans and sorts weigh differently by slot.
func fixtureModel(t *testing.T, fx *fixture.Paper) *cost.Model {
	t.Helper()
	est := cost.NewEstimator(fx.Query, cost.Default())
	tab := cost.NewTables(fx.Memo)
	for _, g := range fx.Memo.Groups {
		tab.Cards[g.ID] = float64(37*g.ID + 11)
	}
	m := cost.NewModelWith(est, tab)
	if err := m.FillLocals(fx.Memo); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCostByRankFixtureEveryRank checks every rank of the paper
// fixture on the uint64 tier and on the forced wide tier.
func TestCostByRankFixtureEveryRank(t *testing.T) {
	fx := fixture.New()
	m := fixtureModel(t, fx)
	for _, opts := range [][]core.Option{nil, {core.WithWideArithmetic()}} {
		s, err := core.Prepare(fx.Memo, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var a core.Arena
		n := s.Count().Int64()
		for r := int64(0); r < n; r++ {
			rb := big.NewInt(r)
			sameBits(t, "fixture/"+s.Arithmetic(), rb, rankCost(t, s, m, rb, &a), treeCost(t, s, m, rb))
		}
	}
}

// TestCostByRankTPCH checks 1,000 seeded ranks per TPC-H space on its
// production tier (Q8+cross on the wide tier), and the same ranks of
// Q5 and Q9 forced onto the wide tier.
func TestCostByRankTPCH(t *testing.T) {
	spaces := []struct {
		name  string
		cross bool
		wide  bool
	}{
		{"Q3", false, false}, {"Q5", false, false}, {"Q6", false, false}, {"Q7", false, false},
		{"Q8", false, false}, {"Q9", false, false}, {"Q10", false, false}, {"Q8", true, false},
		{"Q5", false, true}, {"Q9", false, true},
	}
	for _, sp := range spaces {
		name := sp.name
		if sp.cross {
			name += "+cross"
		}
		if sp.wide {
			name += "/forced-wide"
		}
		t.Run(name, func(t *testing.T) {
			p := tpchPrepared(t, sp.name, sp.cross)
			s := p.Space
			if sp.wide {
				var err error
				if s, err = core.Prepare(p.Space.Memo, core.WithWideArithmetic()); err != nil {
					t.Fatal(err)
				}
			}
			smp, err := p.Space.NewSampler(41)
			if err != nil {
				t.Fatal(err)
			}
			var a core.Arena
			for i := 0; i < 1000; i++ {
				r := smp.NextRank()
				sameBits(t, name, r, rankCost(t, s, p.Opt.Model, r, &a), treeCost(t, s, p.Opt.Model, r))
			}
		})
	}
}

// TestSampleCostsMatchesStream: the shared draw-and-cost loop sees the
// same ranks as NextRank on the same seed, and writes each one's tree
// cost; Draw.Plan builds the drawn plan. Both tiers, across a chunk
// boundary.
func TestSampleCostsMatchesStream(t *testing.T) {
	for _, sp := range []struct {
		name  string
		cross bool
		k     int
	}{{"Q5", false, 1500}, {"Q8", true, 600}} {
		p := tpchPrepared(t, sp.name, sp.cross)
		m := p.Opt.Model
		smp, err := p.Space.NewSampler(9)
		if err != nil {
			t.Fatal(err)
		}
		costs := make([]float64, sp.k)
		ranks := make([]string, sp.k)
		err = smp.SampleCosts(m, costs, func(i int, d *core.Draw) error {
			ranks[i] = string(d.AppendRank(nil))
			if i%97 == 0 {
				pl, err := d.Plan()
				if err != nil {
					return err
				}
				if got, err := p.Space.Rank(pl); err != nil || got.String() != ranks[i] {
					t.Errorf("%s draw %d: Plan ranks to %v (%v), want %s", sp.name, i, got, err, ranks[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := p.Space.NewSampler(9)
		if err != nil {
			t.Fatal(err)
		}
		for i := range costs {
			r := ref.NextRank()
			if r.String() != ranks[i] {
				t.Fatalf("%s draw %d: rank %s, want %s", sp.name, i, ranks[i], r)
			}
			sameBits(t, sp.name, r, costs[i], treeCost(t, p.Space, m, r))
		}
	}
}

// TestCostByRankErrors: ranks out of range fail on both tiers, through
// both entry points, without touching the model.
func TestCostByRankErrors(t *testing.T) {
	p := tpchPrepared(t, "Q5", false)
	w := tpchPrepared(t, "Q8", true)
	var a core.Arena
	if _, err := p.Space.CostInto(p.Space.Count().Uint64(), p.Opt.Model, &a); err == nil {
		t.Error("CostInto(N) succeeded")
	}
	if _, err := p.Space.CostWideInto(core.LimbsOf(p.Space.Count()), p.Opt.Model, &a); err == nil {
		t.Error("CostWideInto(N) succeeded on the uint64 tier")
	}
	if _, err := w.Space.CostWideInto(core.LimbsOf(w.Space.Count()), w.Opt.Model, &a); err == nil {
		t.Error("CostWideInto(N) succeeded")
	}
	if _, err := w.Space.CostWideInto([]uint64{0, 0, 1}, w.Opt.Model, &a); err == nil {
		t.Error("CostWideInto(2^128) succeeded on a 75-bit space")
	}
}

// TestCostByRankAllocationFree: with a warmed arena, neither tier
// allocates.
func TestCostByRankAllocationFree(t *testing.T) {
	p := tpchPrepared(t, "Q9", false)
	w := tpchPrepared(t, "Q8", true)
	r := core.LimbsOf(new(big.Int).Sub(w.Space.Count(), big.NewInt(1)))
	var a core.Arena
	if _, err := p.Space.CostInto(12345, p.Opt.Model, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Space.CostWideInto(r, w.Opt.Model, &a); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { p.Space.CostInto(12345, p.Opt.Model, &a) }); n != 0 {
		t.Errorf("CostInto allocates %.1f times", n)
	}
	if n := testing.AllocsPerRun(20, func() { w.Space.CostWideInto(r, w.Opt.Model, &a) }); n != 0 {
		t.Errorf("CostWideInto allocates %.1f times", n)
	}
}
