package core_test

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/plan"
)

// One rank path serves both arithmetic tiers: every entry point takes
// canonical limbs or adapts to them, and the walks drop to the native
// uint64 leaf wherever a subtree's count fits. The tests below check
// that the entry points agree with each other on every tier, and that
// the uint64 adapters (UnrankInto, CostInto) accept any rank below
// 2^64 on a wide space too.

// tierCase is one space of the cross-tier agreement test.
type tierCase struct {
	name string
	s    *core.Space
	m    *cost.Model
	wide bool
}

func tierCases(t *testing.T) []tierCase {
	t.Helper()
	q5 := tpchPrepared(t, "Q5", false)
	q5w, err := core.Prepare(q5.Space.Memo, core.WithWideArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	q8 := tpchPrepared(t, "Q8", true)
	return []tierCase{
		{"Q5", q5.Space, q5.Opt.Model, false},
		{"Q5/forced-wide", q5w, q5.Opt.Model, true},
		{"Q8+cross", q8.Space, q8.Opt.Model, true},
	}
}

// tierRanks draws n seeded ranks and adds ranks below 2^64: 0, the
// last rank below min(N, 2^64), and each seeded rank's low limb (which
// is below N on every space here).
func tierRanks(t *testing.T, s *core.Space, n int) []*big.Int {
	t.Helper()
	smp, err := s.NewSampler(23)
	if err != nil {
		t.Fatal(err)
	}
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	last := new(big.Int).Set(s.Count())
	if last.Cmp(two64) > 0 {
		last.Set(two64)
	}
	ranks := []*big.Int{big.NewInt(0), last.Sub(last, big.NewInt(1))}
	for i := 0; i < n; i++ {
		r := smp.NextRank()
		ranks = append(ranks, r, new(big.Int).SetUint64(r.Uint64()))
	}
	return ranks
}

// rankAgreement checks one rank through every plan, cost and rank entry
// point of s and returns the plan's digest and cost bits.
func rankAgreement(t *testing.T, s *core.Space, m *cost.Model, r *big.Int) (string, uint64) {
	t.Helper()
	want, err := s.Unrank(r)
	if err != nil {
		t.Fatalf("Unrank(%s): %v", r, err)
	}
	var big1, wide1, u1, costArena core.Arena
	plans := map[string]func() (*plan.Node, error){
		"UnrankBigInto":  func() (*plan.Node, error) { return s.UnrankBigInto(r, &big1) },
		"UnrankWideInto": func() (*plan.Node, error) { return s.UnrankWideInto(core.LimbsOf(r), &wide1) },
	}
	if r.IsUint64() {
		plans["UnrankInto"] = func() (*plan.Node, error) { return s.UnrankInto(r.Uint64(), &u1) }
	}
	var enumerated *plan.Node
	if err := s.EnumerateRange(r, new(big.Int).Add(r, big.NewInt(1)), func(got *big.Int, p *plan.Node) bool {
		if got.Cmp(r) != 0 {
			t.Errorf("EnumerateRange(%s, +1) yielded rank %s", r, got)
		}
		enumerated = p
		return true
	}); err != nil {
		t.Fatalf("EnumerateRange(%s, +1): %v", r, err)
	}
	plans["EnumerateRange"] = func() (*plan.Node, error) { return enumerated, nil }
	plans["Unrank"] = func() (*plan.Node, error) { return want, nil }
	for name, unrank := range plans {
		p, err := unrank()
		if err != nil {
			t.Fatalf("%s(%s): %v", name, r, err)
		}
		if !plan.Equal(p, want) {
			t.Fatalf("%s(%s) builds %s, Unrank %s", name, r, p.Digest(), want.Digest())
		}
		if back, err := s.Rank(p); err != nil || back.Cmp(r) != 0 {
			t.Fatalf("Rank(%s(%s)) = %s, %v", name, r, back, err)
		}
	}

	tree, err := want.CostWith(m, &plan.CostBuf{})
	if err != nil {
		t.Fatalf("cost of %s: %v", r, err)
	}
	c, err := s.CostWideInto(core.LimbsOf(r), m, &costArena)
	if err != nil {
		t.Fatalf("CostWideInto(%s): %v", r, err)
	}
	sameBits(t, "CostWideInto", r, c, tree)
	if r.IsUint64() {
		c, err := s.CostInto(r.Uint64(), m, &costArena)
		if err != nil {
			t.Fatalf("CostInto(%s): %v", r, err)
		}
		sameBits(t, "CostInto", r, c, tree)
	}
	return want.Digest(), math.Float64bits(tree)
}

// samplerAgreement checks that every draw routine yields the stream of
// NextRank, and that SampleCosts' draws carry the ranks, costs and
// plans of the entry points.
func samplerAgreement(t *testing.T, s *core.Space, m *cost.Model, k int) {
	t.Helper()
	newSampler := func() *core.Sampler {
		smp, err := s.NewSampler(31)
		if err != nil {
			t.Fatal(err)
		}
		return smp
	}
	want := make([]*big.Int, k)
	ref := newSampler()
	for i := range want {
		want[i] = ref.NextRank()
	}

	into := newSampler()
	buf := make([]uint64, s.RankLimbs())
	flat := make([]uint64, k*s.RankLimbs())
	if err := newSampler().SampleRanksWideInto(flat, k); err != nil {
		t.Fatal(err)
	}
	var native []uint64
	if s.RankLimbs() == 1 {
		native = make([]uint64, k)
		if err := newSampler().SampleRanks(native); err != nil {
			t.Fatal(err)
		}
	} else if err := newSampler().SampleRanks(make([]uint64, 1)); err == nil {
		t.Fatalf("SampleRanks accepted a space of %d-limb ranks", s.RankLimbs())
	}
	for i, r := range want {
		if got := core.BigFromLimbs(into.NextRankInto(buf)); got.Cmp(r) != 0 {
			t.Fatalf("NextRankInto draw %d = %s, NextRank %s", i, got, r)
		}
		row := flat[i*len(buf) : (i+1)*len(buf)]
		if got := core.BigFromLimbs(core.WideNorm(row)); got.Cmp(r) != 0 {
			t.Fatalf("SampleRanksWideInto draw %d = %s, NextRank %s", i, got, r)
		}
		if native != nil && native[i] != r.Uint64() {
			t.Fatalf("SampleRanks draw %d = %d, NextRank %s", i, native[i], r)
		}
	}

	costs := make([]float64, k)
	err := newSampler().SampleCosts(m, costs, func(i int, d *core.Draw) error {
		if got := string(d.AppendRank(nil)); got != want[i].String() {
			t.Fatalf("SampleCosts draw %d rank %s, NextRank %s", i, got, want[i])
		}
		p, err := d.Plan()
		if err != nil {
			return err
		}
		if back, err := s.Rank(p); err != nil || back.Cmp(want[i]) != 0 {
			t.Fatalf("SampleCosts draw %d: Plan ranks to %s (%v), want %s", i, back, err, want[i])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var a core.Arena
	for i, r := range want {
		c, err := s.CostWideInto(core.LimbsOf(r), m, &a)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "SampleCosts", r, costs[i], c)
	}
}

// TestCrossTierAgreement runs the entry-point agreement on Q5 (uint64),
// Q5 forced onto the wide tier and Q8+cross (wide). The two Q5 spaces
// share a memo, so the same ranks must also give the same plans and
// the same cost bits across the tiers.
func TestCrossTierAgreement(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	type result struct {
		digest string
		cost   uint64
	}
	q5 := make(map[string]result)
	for _, tc := range tierCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			if tc.s.Wide() != tc.wide {
				t.Fatalf("tier = %s, want wide=%v", tc.s.Arithmetic(), tc.wide)
			}
			for _, r := range tierRanks(t, tc.s, n) {
				d, c := rankAgreement(t, tc.s, tc.m, r)
				if tc.name == "Q8+cross" {
					continue
				}
				if !tc.wide {
					q5[r.String()] = result{d, c}
				} else if prev, ok := q5[r.String()]; !ok || prev.digest != d || prev.cost != c {
					t.Fatalf("rank %s: plan %s cost %#x on the wide tier, uint64 tier %+v (drawn: %v)", r, d, c, prev, ok)
				}
			}
			samplerAgreement(t, tc.s, tc.m, 300)
		})
	}
}
