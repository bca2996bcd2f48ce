package core_test

import (
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
)

// The benchmarks below price the two production arithmetic tiers on
// TPC-H-scale spaces (sf=0.001): uint64 rows on Q5/Q8/Q9, wide rows on
// Q8 with Cartesian products (~2.7e22 plans, 75-bit ranks). Each
// production row has a /ref row over the same space and the same ranks
// on the math/big reference (ref_test.go); scripts/bench_diff.sh gates
// the production-vs-reference ratios recorded in BENCH_core.json and
// requires 0 allocs/op on every production row.

// uint64Space prepares a TPC-H query whose space must fit uint64.
func uint64Space(b *testing.B, q string) *engine.Prepared {
	b.Helper()
	p := tpchPrepared(b, q, false)
	if !p.FitsUint64() {
		b.Fatalf("%s space %s exceeds uint64; benchmark fixture invalid", q, p.Count())
	}
	return p
}

// q8Cross prepares Q8 with Cartesian products, which must land on the
// wide tier.
func q8Cross(b *testing.B) *engine.Prepared {
	b.Helper()
	p := tpchPrepared(b, "Q8", true)
	if !p.Space.Wide() {
		b.Fatalf("Q8+cross tier = %s; want wide", p.Space.Arithmetic())
	}
	return p
}

// BenchmarkUnrank measures mixed-radix decomposition of 1024 pre-drawn
// ranks into plans. Production rows reuse one warmed arena and must run
// at 0 allocs/op.
func BenchmarkUnrank(b *testing.B) {
	for _, q := range []string{"Q5", "Q8", "Q9"} {
		p := uint64Space(b, q)
		smp, err := p.Sampler(1)
		if err != nil {
			b.Fatal(err)
		}
		ranks := make([]uint64, 1024)
		if err := smp.SampleRanks(ranks); err != nil {
			b.Fatal(err)
		}
		b.Run(q+"/uint64", func(b *testing.B) {
			var arena core.Arena
			for _, r := range ranks {
				if _, err := p.Space.UnrankInto(r, &arena); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Space.UnrankInto(ranks[i%len(ranks)], &arena); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q+"/ref", func(b *testing.B) {
			ref := core.NewRef(p.Opt.Memo, nil)
			refRanks := make([]*big.Int, len(ranks))
			for i, r := range ranks {
				refRanks[i] = new(big.Int).SetUint64(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ref.Unrank(refRanks[i%len(refRanks)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	p8 := q8Cross(b)
	smp8, err := p8.Sampler(1)
	if err != nil {
		b.Fatal(err)
	}
	wideRanks := make([][]uint64, 1024)
	buf := make([]uint64, p8.Space.RankLimbs())
	for i := range wideRanks {
		wideRanks[i] = append([]uint64(nil), smp8.NextRankInto(buf)...)
	}
	b.Run("Q8cross/wide", func(b *testing.B) {
		var arena core.Arena
		for _, r := range wideRanks {
			if _, err := p8.Space.UnrankWideInto(r, &arena); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p8.Space.UnrankWideInto(wideRanks[i%len(wideRanks)], &arena); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Q8cross/ref", func(b *testing.B) {
		ref := core.NewRef(p8.Opt.Memo, nil)
		refRanks := make([]*big.Int, len(wideRanks))
		for i, r := range wideRanks {
			refRanks[i] = core.BigFromLimbs(r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ref.Unrank(refRanks[i%len(refRanks)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSample measures full uniform sampling (rank generation +
// unranking): the steady-state sampling loop of the experiments
// pipeline on the production tiers, and the reference's draw rule plus
// unranking on the /ref rows.
func BenchmarkSample(b *testing.B) {
	for _, q := range []string{"Q5", "Q8", "Q9"} {
		p := uint64Space(b, q)
		b.Run(q+"/uint64", func(b *testing.B) {
			var arena core.Arena
			warm, err := p.Sampler(3)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 1024; i++ {
				if _, err := p.Space.UnrankInto(warm.NextRank64(), &arena); err != nil {
					b.Fatal(err)
				}
			}
			smp, err := p.Sampler(2)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Space.UnrankInto(smp.NextRank64(), &arena); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q+"/ref", func(b *testing.B) {
			ref := core.NewRef(p.Opt.Memo, nil)
			smp := ref.NewSampler(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ref.Unrank(smp.NextRank()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	p8 := q8Cross(b)
	b.Run("Q8cross/wide", func(b *testing.B) {
		buf := make([]uint64, p8.Space.RankLimbs())
		var arena core.Arena
		warm, err := p8.Sampler(3)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1024; i++ {
			if _, err := p8.Space.UnrankWideInto(warm.NextRankInto(buf), &arena); err != nil {
				b.Fatal(err)
			}
		}
		smp, err := p8.Sampler(2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p8.Space.UnrankWideInto(smp.NextRankInto(buf), &arena); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Q8cross/ref", func(b *testing.B) {
		ref := core.NewRef(p8.Opt.Memo, nil)
		smp := ref.NewSampler(2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ref.Unrank(smp.NextRank()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCostRank measures reading a plan's cost straight off its
// rank (CostInto, CostWideInto) for 1024 pre-drawn ranks: the per-plan
// work of /sample and of the experiments' cost sampling. Production
// rows reuse one warmed arena and must run at 0 allocs/op; the /ref
// rows build the same plans on the math/big reference and cost each
// tree with plan.Node.Cost.
func BenchmarkCostRank(b *testing.B) {
	for _, q := range []string{"Q5", "Q8", "Q9"} {
		p := uint64Space(b, q)
		smp, err := p.Sampler(1)
		if err != nil {
			b.Fatal(err)
		}
		ranks := make([]uint64, 1024)
		if err := smp.SampleRanks(ranks); err != nil {
			b.Fatal(err)
		}
		b.Run(q+"/uint64", func(b *testing.B) {
			var arena core.Arena
			for _, r := range ranks {
				if _, err := p.Space.CostInto(r, p.Opt.Model, &arena); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Space.CostInto(ranks[i%len(ranks)], p.Opt.Model, &arena); err != nil {
					b.Fatal(err)
				}
			}
		})
		refRanks := make([]*big.Int, len(ranks))
		for i, r := range ranks {
			refRanks[i] = new(big.Int).SetUint64(r)
		}
		b.Run(q+"/ref", func(b *testing.B) { benchRefCost(b, p, refRanks) })
	}

	p8 := q8Cross(b)
	smp8, err := p8.Sampler(1)
	if err != nil {
		b.Fatal(err)
	}
	wideRanks := make([][]uint64, 1024)
	refRanks := make([]*big.Int, len(wideRanks))
	buf := make([]uint64, p8.Space.RankLimbs())
	for i := range wideRanks {
		wideRanks[i] = append([]uint64(nil), smp8.NextRankInto(buf)...)
		refRanks[i] = core.BigFromLimbs(wideRanks[i])
	}
	b.Run("Q8cross/wide", func(b *testing.B) {
		var arena core.Arena
		for _, r := range wideRanks {
			if _, err := p8.Space.CostWideInto(r, p8.Opt.Model, &arena); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p8.Space.CostWideInto(wideRanks[i%len(wideRanks)], p8.Opt.Model, &arena); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Q8cross/ref", func(b *testing.B) { benchRefCost(b, p8, refRanks) })
}

// benchRefCost is a /ref row of BenchmarkCostRank: the reference's
// unrank plus plan.Node.Cost.
func benchRefCost(b *testing.B, p *engine.Prepared, ranks []*big.Int) {
	ref := core.NewRef(p.Opt.Memo, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := ref.Unrank(ranks[i%len(ranks)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pl.Cost(p.Opt.Model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRender measures rendering one plan tree (plan.Node.String)
// over 256 seeded Q5 plans: the append formatters on the /append row,
// the fmt-based renderer they replaced (fmtRender, render_test.go) on
// the /ref row.
func BenchmarkRender(b *testing.B) {
	p := uint64Space(b, "Q5")
	smp, err := p.Sampler(1)
	if err != nil {
		b.Fatal(err)
	}
	plans, err := smp.Sample(256)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name   string
		render func(*plan.Node) string
	}{{"Q5/append", (*plan.Node).String}, {"Q5/ref", fmtRender}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = row.render(plans[i%len(plans)])
			}
		})
	}
}
