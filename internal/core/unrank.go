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
// arithmetic operations for a plan of m operators. The returned plan is
// freshly allocated and independent of the space.
func (s *Space) Unrank(r *big.Int) (*plan.Node, error) {
	if r.Sign() < 0 {
		return nil, s.errRange(r)
	}
	return s.UnrankWideInto(bigToLimbs(r, nil), nil)
}

// UnrankBigInto is Unrank building the plan inside a: after the arena
// has warmed up, the call performs no heap allocation on either tier.
// The returned plan is valid until the next unranking call on the same
// arena.
func (s *Space) UnrankBigInto(r *big.Int, a *Arena) (*plan.Node, error) {
	if r.Sign() < 0 || a == nil {
		return s.Unrank(r)
	}
	a.Reset()
	return s.unrankWide(bigToLimbs(r, a.wide.Alloc(len(r.Bits()))), a, &a.wide)
}

// UnrankWideInto constructs the plan with canonical little-endian rank
// r (not modified) inside a, reusing its node and limb buffers: after
// the arena has warmed up, the call performs no heap allocation. The
// returned plan is valid until the next unranking call or Reset on the
// same arena; a nil arena allocates fresh nodes. It is the entry point
// every other unranking call adapts to.
func (s *Space) UnrankWideInto(r []uint64, a *Arena) (*plan.Node, error) {
	if a == nil {
		return s.unrankWide(r, nil, new(WideArena))
	}
	a.Reset()
	return s.unrankWide(r, a, &a.wide)
}

// UnrankInto is UnrankWideInto for a rank held in one uint64, on either
// tier.
func (s *Space) UnrankInto(r uint64, a *Arena) (*plan.Node, error) {
	limb := [1]uint64{r}
	return s.UnrankWideInto(limb[:], a)
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
