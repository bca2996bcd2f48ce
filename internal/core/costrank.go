package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/memo"
)

// This file reads a plan's cost straight off its rank. The walks below
// take the same mixed-radix digits, in the same order, as unrankExpr64
// and unrankExprWide (the wide walks share stepWide), but build no
// plan.Node: each operator's cost comes from cost.Model.Combine over
// its children's costs, pushed in slot order on the arena's cost
// stack exactly as plan.Node.CostWith pushes them. The cost of rank r
// is therefore the same float64, bit for bit, as unranking r and
// costing the tree, and cost keeps its one formula (Combine).

// CostWideInto returns the cost under m of the plan with canonical
// little-endian rank r (not modified), using a's cost stack and limb
// scratch: after the arena has warmed up the call performs no heap
// allocation. It resets a, so plans previously built in a become
// invalid.
func (s *Space) CostWideInto(r []uint64, m *cost.Model, a *Arena) (float64, error) {
	a.Reset()
	e, v, local, fits, err := s.pickRoot(r, &a.wide)
	if err != nil {
		return 0, err
	}
	if fits {
		return s.costExpr64(e, v, m, a)
	}
	return s.costExprWide(e, local, m, a)
}

// CostInto is CostWideInto for a rank held in one uint64, on either
// tier.
func (s *Space) CostInto(r uint64, m *cost.Model, a *Arena) (float64, error) {
	limb := [1]uint64{r}
	return s.CostWideInto(limb[:], m, a)
}

// costExpr64 returns the cost of the plan rooted at e with local rank
// rl in [0, N(e)). An error leaves the cost stack unbalanced; every
// walk starts from a reset arena.
func (s *Space) costExpr64(e *memo.Expr, rl uint64, m *cost.Model, a *Arena) (float64, error) {
	info := s.info[e.ID]
	if info == nil {
		return 0, fmt.Errorf("core: operator %s is not part of this space", e.Name())
	}
	base := len(a.costs)
	rem := rl
	for i, c := range info.slots {
		x := &s.ctx[c]
		b := x.b64
		if b == 0 {
			return 0, errNoCandidates(e, i)
		}
		// The digit step of unrankExpr64, kept inline there and here:
		// a helper call per slot costs the uint64 walks ~5%.
		q := x.div64.quo(rem)
		sub := rem - q*b
		rem = q
		j := selectByPrefix64(x.prefix64, sub)
		cc, err := s.costExpr64(x.cands[j], sub-x.prefix64[j], m, a)
		if err != nil {
			return 0, err
		}
		a.costs = append(a.costs, cc)
	}
	if rem != 0 {
		return 0, errRankOverflow(e)
	}
	total, err := m.Combine(e, a.costs[base:])
	a.costs = a.costs[:base]
	return total, err
}

// costExprWide mirrors costExpr64 with limb arithmetic; rl is owned
// scratch, as in unrankExprWide.
func (s *Space) costExprWide(e *memo.Expr, rl []uint64, m *cost.Model, a *Arena) (float64, error) {
	info := s.info[e.ID]
	if info == nil {
		return 0, fmt.Errorf("core: operator %s is not part of this space", e.Name())
	}
	base := len(a.costs)
	rem := rl
	for i, c := range info.slots {
		child, childLocal, rest, ok := s.ctx[c].stepWide(rem, &a.wide)
		if !ok {
			return 0, errNoCandidates(e, i)
		}
		rem = rest
		var (
			cc  float64
			err error
		)
		if v, fits := s.fitsLocal(child, childLocal); fits {
			cc, err = s.costExpr64(child, v, m, a)
		} else {
			cc, err = s.costExprWide(child, childLocal, m, a)
		}
		if err != nil {
			return 0, err
		}
		a.costs = append(a.costs, cc)
	}
	if len(rem) != 0 {
		return 0, errRankOverflow(e)
	}
	total, err := m.Combine(e, a.costs[base:])
	a.costs = a.costs[:base]
	return total, err
}
