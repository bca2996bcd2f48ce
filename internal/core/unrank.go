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

// MaxRankDigits bounds the decimal plan numbers ParseRank accepts. It
// is far above any count a memo can reach (a space of 2^8191 plans has
// 2,466 digits), and it keeps one request from spending seconds of CPU
// parsing, and then echoing, a megabyte-long number.
const MaxRankDigits = 4096

// ParseRank parses a plan number written in decimal: a non-negative
// integer of at most MaxRankDigits digits. Whether it is in range is
// for the space to say.
func ParseRank(text string) (*big.Int, error) {
	if len(text) > MaxRankDigits {
		return nil, fmt.Errorf("plan number of %d characters exceeds %d digits", len(text), MaxRankDigits)
	}
	r, ok := new(big.Int).SetString(text, 10)
	if !ok || r.Sign() < 0 {
		return nil, fmt.Errorf("invalid plan number %q", text)
	}
	return r, nil
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
