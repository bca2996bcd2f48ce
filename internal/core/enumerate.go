package core

import (
	"math/big"

	"repro/internal/plan"
)

// Enumerate visits every plan of the space in rank order, calling yield
// with each (rank, plan) until yield returns false or the space is
// exhausted. This is the paper's exhaustive generation mode, used "when
// the space of alternatives is small enough for exhaustive testing".
// Yielded plans are freshly allocated and may be retained; for a
// zero-allocation scan use the pull-based iterator (NewIter).
func (s *Space) Enumerate(yield func(r *big.Int, p *plan.Node) bool) error {
	return s.EnumerateRange(new(big.Int), s.total, yield)
}

// EnumerateRange visits plans with ranks in [lo, hi) in order, for
// slicing very large spaces into testable chunks. The range is clamped
// to [0, N) on both tiers.
func (s *Space) EnumerateRange(lo, hi *big.Int, yield func(r *big.Int, p *plan.Node) bool) error {
	if lo.Sign() < 0 {
		lo = new(big.Int)
	}
	if hi.Cmp(s.total) > 0 {
		hi = s.total
	}
	if lo.Cmp(hi) >= 0 {
		return nil
	}
	if s.fits {
		for r := lo.Uint64(); r < hi.Uint64(); r++ {
			p, err := s.unrank64(r, nil)
			if err != nil {
				return err
			}
			if !yield(new(big.Int).SetUint64(r), p) {
				return nil
			}
		}
		return nil
	}
	// Wide tier: iterate the rank as limbs with one reused scratch arena
	// for the decompositions; yielded plans are freshly allocated (and
	// so retainable), the rank arithmetic is not.
	cur, hiW := bigToLimbs(lo, nil), bigToLimbs(hi, nil)
	var wa WideArena
	for wideCmp(cur, hiW) < 0 {
		wa.Reset()
		p, err := s.unrankWide(cur, nil, &wa)
		if err != nil {
			return err
		}
		if !yield(limbsToBig(cur), p) {
			return nil
		}
		cur = wideIncInPlace(cur)
	}
	return nil
}

// wideIncInPlace adds one to a canonical limb slice, growing it when
// the carry ripples past the top limb.
func wideIncInPlace(x []uint64) []uint64 {
	for i := range x {
		x[i]++
		if x[i] != 0 {
			return x
		}
	}
	return append(x, 1)
}

// PlanIter is a pull-based enumerator over a rank range on the uint64
// fast path. It reuses one scratch Arena for the mixed-radix
// decomposition, so a full scan performs no per-plan heap allocation;
// the plan returned by Plan is valid only until the next call to Next.
//
//	it, err := space.NewIter()
//	for it.Next() {
//		use(it.Rank(), it.Plan()) // do not retain it.Plan()
//	}
//	err = it.Err()
type PlanIter struct {
	s     *Space
	next  uint64
	hi    uint64
	rank  uint64
	plan  *plan.Node
	arena Arena
	limb  [1]uint64 // rank buffer on the wide tier
	err   error
}

// NewIter returns a pull iterator over the whole space in rank order.
// It requires the total to fit uint64 (a larger space cannot be
// exhaustively scanned anyway), which admits the uint64 tier and any
// force-wide space of enumerable size.
func (s *Space) NewIter() (*PlanIter, error) {
	if s.fits {
		return &PlanIter{s: s, hi: s.total64}, nil
	}
	if t, ok := wideToU64(s.totalW); ok {
		return &PlanIter{s: s, hi: t}, nil
	}
	return nil, errTooLarge(s.total)
}

// NewRangeIter returns a pull iterator over ranks [lo, hi) (hi clamped
// to N). It works on the uint64 and wide tiers — on a wide space the
// ranks themselves are limited to uint64, which any practical scan
// satisfies.
func (s *Space) NewRangeIter(lo, hi uint64) (*PlanIter, error) {
	if s.fits {
		hi = min(hi, s.total64)
	} else if t, ok := wideToU64(s.totalW); ok {
		hi = min(hi, t)
	}
	return &PlanIter{s: s, next: lo, hi: hi}, nil
}

// Next advances to the next plan, reporting false when the range is
// exhausted or unranking failed (see Err).
func (it *PlanIter) Next() bool {
	if it.err != nil || it.next >= it.hi {
		return false
	}
	var (
		p   *plan.Node
		err error
	)
	if it.s.fits {
		p, err = it.s.UnrankInto(it.next, &it.arena)
	} else {
		it.limb[0] = it.next
		p, err = it.s.UnrankWideInto(wideNorm(it.limb[:]), &it.arena)
	}
	if err != nil {
		it.err = err
		return false
	}
	it.rank, it.plan = it.next, p
	it.next++
	return true
}

// Rank returns the rank of the current plan.
func (it *PlanIter) Rank() uint64 { return it.rank }

// Plan returns the current plan. It lives in the iterator's arena and
// is overwritten by the next call to Next; copy it to retain it.
func (it *PlanIter) Plan() *plan.Node { return it.plan }

// Err returns the first unranking error, if any.
func (it *PlanIter) Err() error { return it.err }

// All collects every plan of the space; callers must check Count first —
// this is intended for the small spaces of unit tests and exhaustive
// verification runs.
func (s *Space) All() ([]*plan.Node, error) {
	if !s.total.IsInt64() {
		return nil, errTooLarge(s.total)
	}
	out := make([]*plan.Node, 0, s.total.Int64())
	err := s.Enumerate(func(_ *big.Int, p *plan.Node) bool {
		out = append(out, p)
		return true
	})
	return out, err
}

func errTooLarge(n *big.Int) error {
	return &SpaceTooLargeError{N: new(big.Int).Set(n)}
}

// SpaceTooLargeError reports an attempt to materialize a space whose size
// exceeds what exhaustive enumeration can handle; callers should fall
// back to sampling, which is the paper's point.
type SpaceTooLargeError struct{ N *big.Int }

func (e *SpaceTooLargeError) Error() string {
	return "core: space holds " + e.N.String() + " plans; enumerate a range or sample instead"
}
