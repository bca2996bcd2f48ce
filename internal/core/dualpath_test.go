package core

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/algebra"
	"repro/internal/fixture"
	"repro/internal/memo"
	"repro/internal/plan"
)

// refCounts checks the space's total and every operator's N(v) against
// the reference.
func refCounts(t *testing.T, s *Space, ref *refSpace) {
	t.Helper()
	if s.Count().Cmp(ref.Count()) != 0 {
		t.Fatalf("count %s, reference %s", s.Count(), ref.Count())
	}
	for _, g := range s.Memo.Groups {
		for _, e := range g.Physical {
			if got, want := s.CountFor(e), ref.CountFor(e); got.Cmp(want) != 0 {
				t.Fatalf("N(%s) = %s, reference %s", e.Name(), got, want)
			}
		}
	}
}

// refDiff checks one rank against the reference: Unrank and
// UnrankBigInto build the reference's plan, and Rank inverts it on both
// sides.
func refDiff(t *testing.T, s *Space, ref *refSpace, r *big.Int, arena *Arena) {
	t.Helper()
	want, err := ref.Unrank(r)
	if err != nil {
		t.Fatalf("reference Unrank(%s): %v", r, err)
	}
	got, err := s.Unrank(r)
	if err != nil {
		t.Fatalf("Unrank(%s): %v", r, err)
	}
	if !plan.Equal(got, want) {
		t.Fatalf("rank %s: plan %s, reference %s", r, got.Digest(), want.Digest())
	}
	if inArena, err := s.UnrankBigInto(r, arena); err != nil || !plan.Equal(inArena, want) {
		t.Fatalf("rank %s: UnrankBigInto disagrees with the reference (%v)", r, err)
	}
	if back, err := s.Rank(got); err != nil || back.Cmp(r) != 0 {
		t.Fatalf("Rank(Unrank(%s)) = %s, %v", r, back, err)
	}
	if back, err := ref.Rank(want); err != nil || back.Cmp(r) != 0 {
		t.Fatalf("reference Rank(Unrank(%s)) = %s, %v", r, back, err)
	}
}

// refStream checks that the space's sampler draws exactly the
// reference's rank stream for seed — NextRank64 on the uint64 tier,
// NextRankInto on the wide tier — and returns the ranks.
func refStream(t *testing.T, s *Space, ref *refSpace, seed int64, n int) []*big.Int {
	t.Helper()
	smp, err := s.NewSampler(seed)
	if err != nil {
		t.Fatal(err)
	}
	if smp.Fast() != s.FitsUint64() || smp.Wide() != s.Wide() {
		t.Fatalf("sampler tier fast=%v wide=%v on a %s space", smp.Fast(), smp.Wide(), s.Arithmetic())
	}
	rs := ref.NewSampler(seed)
	buf := make([]uint64, s.RankLimbs())
	out := make([]*big.Int, n)
	for i := range out {
		var got *big.Int
		if smp.Fast() {
			got = new(big.Int).SetUint64(smp.NextRank64())
		} else {
			got = bigFromLimbs(smp.NextRankInto(buf))
		}
		if want := rs.NextRank(); got.Cmp(want) != 0 {
			t.Fatalf("draw %d: rank %s, reference %s", i, got, want)
		}
		out[i] = got
	}
	return out
}

// TestDualPathDifferentialFixture runs the full differential suite on
// the paper fixture against the reference: identical counts, identical
// plans for every rank, bit-identical sample sequences, and agreeing
// ranks.
func TestDualPathDifferentialFixture(t *testing.T) {
	m := fixture.New().Memo
	fast, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(m, nil)
	if !fast.FitsUint64() {
		t.Fatal("25-plan fixture space should fit uint64")
	}
	if n, ok := fast.CountUint64(); !ok || n != 25 {
		t.Fatalf("CountUint64 = %d, %v; want 25, true", n, ok)
	}
	refCounts(t, fast, ref)

	// Exhaustive: every rank unranks to the reference's plan, and all
	// unranking entry points agree.
	var arena Arena
	for r := uint64(0); r < 25; r++ {
		refDiff(t, fast, ref, new(big.Int).SetUint64(r), &arena)
		pf, err := fast.Unrank64(r)
		if err != nil {
			t.Fatalf("Unrank64(%d): %v", r, err)
		}
		pa, err := fast.UnrankInto(r, &arena)
		if err != nil {
			t.Fatalf("UnrankInto(%d): %v", r, err)
		}
		if pa.Digest() != pf.Digest() {
			t.Fatalf("rank %d: arena plan differs from fresh plan", r)
		}
		back, err := fast.Rank64(pf)
		if err != nil || back != r {
			t.Fatalf("Rank64(Unrank64(%d)) = %d, %v", r, back, err)
		}
	}

	// Sample sequences: same seed, bit-identical ranks.
	refStream(t, fast, ref, 99, 500)
}

// TestDualPathDifferentialStar repeats the differential checks on the
// optimizer-built star-join spaces, including one far too large to
// enumerate: counts, sampled plans, and round-trip ranks must agree
// with the reference for ~1k random ranks.
func TestDualPathDifferentialStar(t *testing.T) {
	for _, query := range []string{
		"SELECT v1 FROM fact, d1 WHERE f1 = k1",
		starQuery,
	} {
		s, _ := prepared(t, query)
		ref := newRef(s.Memo, nil)
		if !s.FitsUint64() {
			t.Fatalf("star space %s should fit uint64", s.Count())
		}
		if n, ok := s.CountUint64(); !ok || new(big.Int).SetUint64(n).Cmp(s.Count()) != 0 {
			t.Fatalf("CountUint64 = %d, %v; want %s", n, ok, s.Count())
		}
		refCounts(t, s, ref)

		iters := 1000
		if testing.Short() {
			iters = 200
		}
		var arena Arena
		for _, r := range refStream(t, s, ref, 4242, iters) {
			refDiff(t, s, ref, r, &arena)
			pf, err := s.UnrankInto(r.Uint64(), &arena)
			if err != nil {
				t.Fatalf("UnrankInto(%s): %v", r, err)
			}
			if back, err := s.Rank64(pf); err != nil || back != r.Uint64() {
				t.Fatalf("Rank64 round trip: %s -> %d, %v", r, back, err)
			}
		}
	}
}

// TestFilteredSpacesAgainstReference: WithFilter carves sub-spaces out
// of one memo; on both tiers the carved counts, plans, and ranks must
// match the reference built with the same keep function.
func TestFilteredSpacesAgainstReference(t *testing.T) {
	fx := fixture.New()
	star, _ := prepared(t, starQuery)
	noMerge := func(e *memo.Expr) bool { return e.Op != memo.MergeJoin }
	cases := []struct {
		name string
		m    *memo.Memo
		keep func(*memo.Expr) bool
	}{
		{"fixture-without-3.4", fx.Memo, func(e *memo.Expr) bool { return e != fx.Op("3.4") }},
		{"fixture-no-merge", fx.Memo, noMerge},
		{"star-no-merge", star.Memo, noMerge},
		{"star-no-sort", star.Memo, func(e *memo.Expr) bool { return e.Op != memo.Sort }},
	}
	for _, tc := range cases {
		for _, wide := range []bool{false, true} {
			opts := []Option{WithFilter(tc.keep)}
			name := tc.name + "/uint64"
			if wide {
				opts = append(opts, WithWideArithmetic())
				name = tc.name + "/wide"
			}
			t.Run(name, func(t *testing.T) {
				s, err := Prepare(tc.m, opts...)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRef(tc.m, tc.keep)
				refCounts(t, s, ref)
				if s.Count().Sign() == 0 {
					t.Fatal("filter emptied the space; the case checks nothing")
				}
				var arena Arena
				for _, r := range refStream(t, s, ref, 5, 200) {
					refDiff(t, s, ref, r, &arena)
				}
			})
		}
	}
}

// chainMemo builds a synthetic memo whose space holds exactly
// 2^(joinLevels+1) plans: a leaf group with two scan operators, then
// joinLevels single-slot join levels with two operators each, doubling
// the per-operator count at every level, topped by a root group. It is
// the instrument for driving the count across the 2^64 boundary.
func chainMemo(joinLevels int) *memo.Memo {
	q := algebra.NewQuery()
	m := memo.New(q)
	prev := m.NewGroup(memo.GroupJoin, algebra.SetOf(0))
	m.AddExpr(prev, memo.Expr{Op: memo.TableScan})
	m.AddExpr(prev, memo.Expr{Op: memo.IndexScan})
	for i := 1; i < joinLevels; i++ {
		g := m.NewGroup(memo.GroupJoin, algebra.SetOf(0))
		m.AddExpr(g, memo.Expr{Op: memo.HashJoin, Children: []*memo.Group{prev}})
		m.AddExpr(g, memo.Expr{Op: memo.MergeJoin, Children: []*memo.Group{prev}})
		prev = g
	}
	root := m.NewGroup(memo.GroupRoot, algebra.SetOf(0))
	m.AddExpr(root, memo.Expr{Op: memo.HashJoin, Children: []*memo.Group{prev}})
	m.AddExpr(root, memo.Expr{Op: memo.MergeJoin, Children: []*memo.Group{prev}})
	return m
}

// TestOverflowBoundary proves the uint64/wide split triggers at
// exactly the right size: a 2^63-plan chain runs on uint64, the
// 2^64-plan chain one level deeper overflows the checked counting and
// moves to the wide tier — where counting, sampling, and rank round
// trips still agree with the reference.
func TestOverflowBoundary(t *testing.T) {
	// 62 join levels: N = 2^63, the largest power of two below 2^64.
	fits, err := Prepare(chainMemo(62))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 63)
	if fits.Count().Cmp(want) != 0 {
		t.Fatalf("chain count = %s, want 2^63", fits.Count())
	}
	if !fits.FitsUint64() {
		t.Fatal("2^63-plan space should fit uint64")
	}
	if n, ok := fits.CountUint64(); !ok || n != 1<<63 {
		t.Fatalf("CountUint64 = %d, %v; want 2^63", n, ok)
	}
	// Round-trip the extremes of the uint64 regime.
	for _, r := range []uint64{0, 1<<63 - 1, 1 << 62} {
		p, err := fits.Unrank64(r)
		if err != nil {
			t.Fatalf("Unrank64(%d): %v", r, err)
		}
		back, err := fits.Rank64(p)
		if err != nil || back != r {
			t.Fatalf("Rank64(Unrank64(%d)) = %d, %v", r, back, err)
		}
	}

	// 63 join levels: N = 2^64, one past uint64. Counting must move to
	// the wide tier, the uint64 entry points must refuse, and the
	// bijection must keep agreeing with the reference across the
	// boundary.
	m := chainMemo(63)
	over, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(m, nil)
	want = new(big.Int).Lsh(big.NewInt(1), 64)
	if over.Count().Cmp(want) != 0 {
		t.Fatalf("chain count = %s, want 2^64", over.Count())
	}
	refCounts(t, over, ref)
	if over.FitsUint64() || !over.Wide() {
		t.Fatalf("2^64-plan space tier = %s, want wide", over.Arithmetic())
	}
	if _, ok := over.CountUint64(); ok {
		t.Fatal("CountUint64 ok on an overflowing space")
	}
	if _, err := over.Unrank64(0); err == nil {
		t.Fatal("Unrank64 succeeded on the wide tier")
	}
	if _, err := over.NewIter(); err == nil {
		t.Fatal("NewIter succeeded on a 2^64-plan space")
	}
	smp, err := over.NewSampler(5)
	if err != nil {
		t.Fatal(err)
	}
	if smp.Fast() {
		t.Fatal("sampler claims fast path on an overflowing space")
	}
	if err := smp.SampleRanks(make([]uint64, 1)); err == nil {
		t.Fatal("SampleRanks succeeded on the wide tier")
	}
	// Ranks straddling 2^64-1: the largest uint64 rank and the last
	// rank must both unrank and round-trip.
	var arena Arena
	for _, r := range []*big.Int{
		big.NewInt(0),
		new(big.Int).SetUint64(math.MaxUint64 - 1),
		new(big.Int).Lsh(big.NewInt(1), 63),
		new(big.Int).SetUint64(math.MaxUint64), // 2^64 - 1: the last rank
	} {
		refDiff(t, over, ref, r, &arena)
	}
	// Sampling draws two words per attempt; the stream is the
	// reference's.
	for _, r := range refStream(t, over, ref, 5, 50) {
		refDiff(t, over, ref, r, &arena)
	}
}

// TestIterMatchesEnumerate checks the pull iterator against Enumerate
// on a small optimizer-built space: same ranks, same plans, and the
// arena reuse does not corrupt earlier decompositions.
func TestIterMatchesEnumerate(t *testing.T) {
	s, _ := prepared(t, "SELECT v1 FROM fact, d1 WHERE f1 = k1")
	want := make(map[uint64]string)
	err := s.Enumerate(func(r *big.Int, p *plan.Node) bool {
		want[r.Uint64()] = p.Digest()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for it.Next() {
		if d := it.Plan().Digest(); d != want[it.Rank()] {
			t.Fatalf("iterator rank %d: digest %s, want %s", it.Rank(), d, want[it.Rank()])
		}
		seen++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Fatalf("iterator yielded %d plans, Enumerate %d", seen, len(want))
	}

	// Range iterator slices the same sequence.
	rit, err := s.NewRangeIter(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ranks []uint64
	for rit.Next() {
		ranks = append(ranks, rit.Rank())
	}
	if len(ranks) != 4 || ranks[0] != 3 || ranks[3] != 6 {
		t.Fatalf("range iterator ranks = %v", ranks)
	}
}

// TestSampleRanksMatchesNextRank: the batched draw is the same stream
// as repeated single draws.
func TestSampleRanksMatchesNextRank(t *testing.T) {
	s, _ := prepared(t, starQuery)
	a, err := s.NewSampler(31)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewSampler(31)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 256)
	if err := a.SampleRanks(dst); err != nil {
		t.Fatal(err)
	}
	for i, r := range dst {
		if single := b.NextRank64(); single != r {
			t.Fatalf("batch draw %d = %d, single draw = %d", i, r, single)
		}
	}
}

// chiSquaredThreshold approximates the 0.999 quantile of the
// chi-squared distribution with dof degrees of freedom
// (Wilson-Hilferty), the rejection bound for the uniformity tests.
func chiSquaredThreshold(dof float64) float64 {
	const z = 3.09 // 0.999 normal quantile
	h := 2.0 / (9.0 * dof)
	x := 1.0 - h + z*math.Sqrt(h)
	return dof * x * x * x
}

// TestSamplerUniformityAgainstEnumeration is the statistical
// goodness-of-fit satellite: on spaces small enough to enumerate, the
// frequency of each exhaustively enumerated plan among sampler draws
// must pass a chi-squared test at the 0.999 level. The seed is fixed,
// so the test is deterministic.
func TestSamplerUniformityAgainstEnumeration(t *testing.T) {
	cases := []struct {
		name string
		s    *Space
	}{
		{"fixture", func() *Space {
			s, err := Prepare(fixture.New().Memo)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}()},
	}
	if s, _ := prepared(t, "SELECT v1 FROM fact, d1 WHERE f1 = k1"); s.Count().IsInt64() && s.Count().Int64() <= 10000 {
		cases = append(cases, struct {
			name string
			s    *Space
		}{"star_small", s})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n64, ok := tc.s.CountUint64()
			if !ok {
				t.Fatal("uniformity test needs the uint64 path")
			}
			n := int(n64)
			// Ground truth: the digest of every plan, by rank, from
			// exhaustive enumeration through the pull iterator.
			digestOf := make([]string, n)
			it, err := tc.s.NewIter()
			if err != nil {
				t.Fatal(err)
			}
			for it.Next() {
				digestOf[it.Rank()] = it.Plan().Digest()
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}

			draws := 40 * n
			if draws < 20000 {
				draws = 20000
			}
			smp, err := tc.s.NewSampler(12345)
			if err != nil {
				t.Fatal(err)
			}
			counts := make(map[string]int, n)
			for i := 0; i < draws; i++ {
				counts[digestOf[smp.NextRank64()]]++
			}
			if len(counts) != n {
				t.Fatalf("observed %d distinct plans, space holds %d", len(counts), n)
			}
			expected := float64(draws) / float64(n)
			chi2 := 0.0
			for _, c := range counts {
				d := float64(c) - expected
				chi2 += d * d / expected
			}
			if limit := chiSquaredThreshold(float64(n - 1)); chi2 > limit {
				t.Errorf("chi-squared = %.1f over %d dof exceeds %.1f; sampling looks non-uniform", chi2, n-1, limit)
			}
		})
	}
}

// TestPropertyRoundTripFixtureBothPaths is the fixture half of the
// property-test satellite: ~1k random ranks must round-trip
// Rank(Unrank(r)) == r on the uint64 tier, on the forced wide tier, and
// on the reference, and all three must build the same plan.
func TestPropertyRoundTripFixtureBothPaths(t *testing.T) {
	m := fixture.New().Memo
	fast, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Prepare(m, WithWideArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(m, nil)
	var arena Arena
	for i, r := range refStream(t, fast, ref, 8, 1000) {
		p, err := fast.Unrank64(r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("plan %s invalid: %v", r, err)
		}
		back, err := fast.Rank64(p)
		if err != nil || back != r.Uint64() {
			t.Fatalf("fast round trip %s -> %d, %v", r, back, err)
		}
		refDiff(t, fast, ref, r, &arena)
		refDiff(t, wide, ref, r, &arena)
		if i == 0 {
			refStream(t, wide, ref, 1009, 1000)
		}
	}
}
