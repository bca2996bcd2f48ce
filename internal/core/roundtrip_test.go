package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// TestTPCHDualPathRoundTrip is the TPC-H half of the property-test
// satellite: for every named TPC-H query, ~1k uniformly random ranks
// must round-trip Rank(Unrank(r)) == r on the uint64 tier AND on the
// math/big reference — and the two must produce bit-identical rank
// sequences and identical plans for the same seed.
func TestTPCHDualPathRoundTrip(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 100
	}
	for _, q := range tpch.QueryNames() {
		t.Run(q, func(t *testing.T) {
			p := tpchPrepared(t, q, false)
			fast := p.Space
			if fast.Wide() {
				t.Fatalf("%s space %s exceeds uint64 at this scale", q, p.Count())
			}
			ref := core.NewRef(p.Opt.Memo, nil)

			// Differential: counts agree with the reference and across
			// widths.
			if fast.Count().Cmp(ref.Count()) != 0 {
				t.Fatalf("count %s, reference %s", fast.Count(), ref.Count())
			}

			fs, err := fast.NewSampler(77)
			if err != nil {
				t.Fatal(err)
			}
			rs := ref.NewSampler(77)
			var arena core.Arena
			for i := 0; i < iters; i++ {
				r := fs.NextRank().Uint64()
				rb := rs.NextRank()
				if !rb.IsUint64() || rb.Uint64() != r {
					t.Fatalf("draw %d: fast rank %d, reference rank %s", i, r, rb)
				}
				pf, err := fast.UnrankInto(r, &arena)
				if err != nil {
					t.Fatalf("UnrankInto(%d): %v", r, err)
				}
				pb, err := ref.Unrank(rb)
				if err != nil {
					t.Fatalf("reference Unrank(%s): %v", rb, err)
				}
				if !plan.Equal(pf, pb) {
					t.Fatalf("rank %d: plan differs from the reference", r)
				}
				back, err := fast.Rank(pf)
				if err != nil || back.Cmp(rb) != 0 {
					t.Fatalf("fast round trip %d -> %s, %v", r, back, err)
				}
				refBack, err := ref.Rank(pb)
				if err != nil || refBack.Cmp(rb) != 0 {
					t.Fatalf("reference round trip %s -> %s, %v", rb, refBack, err)
				}
			}
		})
	}
}

// TestTPCHOptimalPlanRankBothPaths: the optimizer's own plan carries
// the same rank in production and in the reference for every TPC-H
// query, with and without Cartesian products (Q8 with them is the wide
// tier's real query).
func TestTPCHOptimalPlanRankBothPaths(t *testing.T) {
	for _, q := range tpch.QueryNames() {
		for _, cross := range []bool{false, true} {
			if cross && q != "Q8" {
				continue
			}
			p := tpchPrepared(t, q, cross)
			ref := core.NewRef(p.Opt.Memo, nil)
			r, err := p.Space.Rank(p.OptimalPlan())
			if err != nil {
				t.Fatalf("%s Rank: %v", q, err)
			}
			refRank, err := ref.Rank(p.OptimalPlan())
			if err != nil {
				t.Fatalf("%s reference Rank: %v", q, err)
			}
			if r.Cmp(refRank) != 0 {
				t.Fatalf("%s: optimal plan ranks differ, %s vs reference %s", q, r, refRank)
			}
			back, err := p.Unrank(r)
			if err != nil {
				t.Fatalf("%s Unrank: %v", q, err)
			}
			if !plan.Equal(back, p.OptimalPlan()) {
				t.Fatalf("%s: Unrank(Rank(best)) != best", q)
			}
		}
	}
}

// TestQ8CrossAgainstReference samples the ~2.7e22-plan Q8 space with
// Cartesian products — the wide tier's real query — against the
// reference: same count, same seeded limb rank stream, same plans, and
// round-trip ranks on both sides.
func TestQ8CrossAgainstReference(t *testing.T) {
	p := tpchPrepared(t, "Q8", true)
	s := p.Space
	if !s.Wide() {
		t.Fatalf("Q8+cross tier = %s, want wide", s.Arithmetic())
	}
	ref := core.NewRef(p.Opt.Memo, nil)
	if s.Count().Cmp(ref.Count()) != 0 {
		t.Fatalf("count %s, reference %s", s.Count(), ref.Count())
	}
	iters := 300
	if testing.Short() {
		iters = 50
	}
	smp, err := s.NewSampler(77)
	if err != nil {
		t.Fatal(err)
	}
	rs := ref.NewSampler(77)
	buf := make([]uint64, s.RankLimbs())
	var arena core.Arena
	for i := 0; i < iters; i++ {
		limbs := smp.NextRankInto(buf)
		r := core.BigFromLimbs(limbs)
		if want := rs.NextRank(); r.Cmp(want) != 0 {
			t.Fatalf("draw %d: rank %s, reference %s", i, r, want)
		}
		pw, err := s.UnrankWideInto(limbs, &arena)
		if err != nil {
			t.Fatalf("UnrankWideInto(%s): %v", r, err)
		}
		pb, err := ref.Unrank(r)
		if err != nil {
			t.Fatalf("reference Unrank(%s): %v", r, err)
		}
		if !plan.Equal(pw, pb) {
			t.Fatalf("rank %s: plan differs from the reference", r)
		}
		if back, err := s.Rank(pw); err != nil || back.Cmp(r) != 0 {
			t.Fatalf("round trip %s -> %s, %v", r, back, err)
		}
		if back, err := ref.Rank(pb); err != nil || back.Cmp(r) != 0 {
			t.Fatalf("reference round trip %s -> %s, %v", r, back, err)
		}
	}
}
