package core

import (
	"fmt"
	"math/big"

	"repro/internal/plan"
)

// Unrank constructs the plan with rank r, for r in [0, N). This is the
// paper's Section 3.3: the root operator is selected by cumulative
// counts, its local rank is decomposed into per-child sub-ranks in the
// mixed-radix system with bases b_v(i), and each sub-rank is unranked
// recursively in the child's candidate list. Unranking is O(m)
// arithmetic operations for a plan of m operators — native uint64 when
// the space fits (see fast.go), limb arithmetic otherwise (widepath.go).
func (s *Space) Unrank(r *big.Int) (*plan.Node, error) {
	if s.fits && r.IsUint64() {
		return s.unrank64(r.Uint64(), nil)
	}
	if r.Sign() < 0 || r.Cmp(s.total) >= 0 {
		return nil, fmt.Errorf("core: rank %s out of range [0, %s)", r, s.total)
	}
	return s.UnrankWide(bigToLimbs(r, nil))
}

// UnrankBigInto is Unrank reusing an arena: the rank decomposes into
// a's node and limb buffers with no steady-state allocation on either
// tier. The returned plan is valid until the next unranking call on the
// same arena.
func (s *Space) UnrankBigInto(r *big.Int, a *Arena) (*plan.Node, error) {
	if r.Sign() < 0 || r.Cmp(s.total) >= 0 {
		return nil, fmt.Errorf("core: rank %s out of range [0, %s)", r, s.total)
	}
	if s.fits {
		return s.UnrankInto(r.Uint64(), a)
	}
	if a == nil {
		return s.UnrankWide(bigToLimbs(r, nil))
	}
	a.Reset()
	limbs := bigToLimbs(r, a.wide.Alloc(s.RankLimbs()))
	return s.unrankWide(limbs, a, &a.wide)
}

// Rank computes the integer the given plan maps to — the inverse of
// Unrank. It is used by property tests (Rank(Unrank(r)) == r) and to
// answer the paper's "what number did the optimizer's own choice get?".
func (s *Space) Rank(n *plan.Node) (*big.Int, error) {
	if !s.fits {
		return s.rankWide(n)
	}
	r, err := s.Rank64(n)
	if err != nil {
		return nil, err
	}
	return new(big.Int).SetUint64(r), nil
}
