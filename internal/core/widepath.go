package core

import (
	"fmt"
	"math/big"

	"repro/internal/memo"
	"repro/internal/plan"
)

// This file holds the walks every rank goes through: a rank is
// canonical little-endian limbs (wide.go) at every entry point, on
// both tiers. The walks select over wide prefix sums and decompose with
// wide (or single-limb) bases only where a node's count needs it, and
// hand any subtree whose count fits uint64 to the native leaf in
// fast.go — on a space whose total fits, that is the root operator
// itself, selected on the root's native row, so the only limb work is
// the range check. Every temporary is
// carved from a WideArena, so a warmed UnrankWideInto performs zero
// heap allocations.

// unrankWide builds the plan with rank r (canonical limbs, not
// modified) in a — fresh heap nodes when a is nil — with limb scratch
// from wa.
func (s *Space) unrankWide(r []uint64, a *Arena, wa *WideArena) (*plan.Node, error) {
	e, v, local, fits, err := s.pickRoot(r, wa)
	if err != nil {
		return nil, err
	}
	if fits {
		return s.unrankExpr64(e, v, a)
	}
	return s.unrankExprWide(e, local, a, wa)
}

// pickRoot checks rank r (not modified) against N and selects the root
// operator e. When e's subtree is counted in uint64 (fits), its local
// rank comes back natively in v; otherwise as owned scratch from wa.
func (s *Space) pickRoot(r []uint64, wa *WideArena) (e *memo.Expr, v uint64, local []uint64, fits bool, err error) {
	r = wideNorm(r)
	if wideCmp(r, s.totalW) >= 0 {
		return nil, 0, nil, false, s.errRange(limbsToBig(r))
	}
	if x := s.root; x.bW == nil {
		// A native root row holds every rank of a uint64-tier space:
		// select on it directly, with no limb scratch. Only a space
		// forced onto the wide tier falls through.
		r0, _ := wideToU64(r)
		j := selectByPrefix64(x.prefix64, r0)
		if e := x.cands[j]; s.info[e.ID].fits {
			return e, r0 - x.prefix64[j], nil, true, nil
		}
	}
	e, local = s.root.pick(wa.put(r))
	v, fits = s.fitsLocal(e, local)
	return e, v, local, fits, nil
}

// errRange reports a rank outside [0, N).
func (s *Space) errRange(r *big.Int) error {
	return fmt.Errorf("core: rank %s out of range [0, %s)", r, s.total)
}

// pick selects the candidate of the context holding local rank r
// (owned scratch) and returns it with r reduced in place to the
// candidate's own local rank. A context whose base fits uint64 selects
// on its native row.
func (x *ctxInfo) pick(r []uint64) (*memo.Expr, []uint64) {
	if x.bW != nil {
		j := selectByPrefixWide(x.prefixW, r)
		return x.cands[j], wideSubInPlace(r, x.prefixW[j])
	}
	v, _ := wideToU64(r)
	j := selectByPrefix64(x.prefix64, v)
	if len(r) == 1 {
		r[0] = v - x.prefix64[j]
		r = wideNorm(r)
	}
	return x.cands[j], r
}

// unrankExprWide mirrors unrankExpr64 with limb arithmetic. rl is owned
// scratch (mutated in place); slots whose context bases fit uint64
// decompose on the single-limb lane, and the recursion drops to the
// native uint64 decomposer the moment a child's whole subtree fits —
// for TPC-H-scale wide spaces that is almost immediately, so the wide
// work stays confined to the top of the plan.
func (s *Space) unrankExprWide(e *memo.Expr, rl []uint64, a *Arena, wa *WideArena) (*plan.Node, error) {
	info := s.info[e.ID]
	if info == nil {
		return nil, fmt.Errorf("core: operator %s is not part of this space", e.Name())
	}
	var node *plan.Node
	if a != nil {
		node = a.newNode(e)
	} else {
		node = &plan.Node{Expr: e}
	}
	if len(info.slots) == 0 {
		if len(rl) != 0 {
			return nil, fmt.Errorf("core: leaf operator %s given non-zero local rank %s", e.Name(), limbsToBig(rl))
		}
		return node, nil
	}
	if a != nil {
		node.Children = a.newChildren(len(info.slots))
	} else {
		node.Children = make([]*plan.Node, len(info.slots))
	}
	rem := rl
	for i, c := range info.slots {
		child, childLocal, rest, ok := s.ctx[c].stepWide(rem, wa)
		if !ok {
			return nil, errNoCandidates(e, i)
		}
		rem = rest
		var (
			ch  *plan.Node
			err error
		)
		if v, fits := s.fitsLocal(child, childLocal); fits {
			ch, err = s.unrankExpr64(child, v, a)
		} else {
			ch, err = s.unrankExprWide(child, childLocal, a, wa)
		}
		if err != nil {
			return nil, err
		}
		node.Children[i] = ch
	}
	if len(rem) != 0 {
		return nil, errRankOverflow(e)
	}
	return node, nil
}

// stepWide takes one mixed-radix digit off the owned-scratch local rank
// rem (mutated in place) at a slot that draws from context x, and
// returns the selected candidate, its local rank
// and the rank left for the following slots. A context whose base fits
// uint64 decomposes on the single-limb lane even though the node as a
// whole does not; ok is false when the context has no candidates.
func (x *ctxInfo) stepWide(rem []uint64, wa *WideArena) (e *memo.Expr, local, rest []uint64, ok bool) {
	if x.bW != nil {
		var sub []uint64
		rest, sub = wideDivMod(rem, x.bW, wa)
		e, local = x.pick(sub)
		return e, local, rest, true
	}
	b := x.b64
	if b == 0 {
		return nil, nil, nil, false
	}
	var sub64 uint64
	if len(rem) <= 1 {
		// The remaining rank already fits one limb: reciprocal
		// division, no call, no re-normalization.
		var r0 uint64
		if len(rem) == 1 {
			r0 = rem[0]
		}
		q := x.div64.quo(r0)
		sub64 = r0 - q*b
		if q == 0 {
			rem = rem[:0]
		} else {
			rem = rem[:1]
			rem[0] = q
		}
	} else {
		rem, sub64 = wideDivModU64(rem, b)
	}
	sub := wa.Alloc(1)
	sub[0] = sub64
	e, local = x.pick(sub)
	return e, local, rem, true
}

// fitsLocal reports whether operator e's whole subtree is counted in
// uint64, and returns its local rank natively then: the wide walks hand
// such a subtree straight to the native decomposer.
func (s *Space) fitsLocal(e *memo.Expr, local []uint64) (uint64, bool) {
	if info := s.info[e.ID]; info != nil && info.fits {
		v, _ := wideToU64(local)
		return v, true
	}
	return 0, false
}

// Rank computes the integer the given plan maps to — the inverse of
// Unrank. It is used by property tests (Rank(Unrank(r)) == r) and to
// answer the paper's "what number did the optimizer's own choice get?".
// It allocates (ranking is an API operation, not the sampling hot
// loop).
func (s *Space) Rank(n *plan.Node) (*big.Int, error) {
	k := indexOf(s.root.cands, n.Expr)
	if k < 0 {
		return nil, fmt.Errorf("core: plan root %s is not a root-group operator of this space", n.Expr.Name())
	}
	local, err := s.rankExprWide(n)
	if err != nil {
		return nil, err
	}
	return limbsToBig(wideAdd(local, s.root.prefixAt(k))), nil
}

func (s *Space) rankExprWide(n *plan.Node) ([]uint64, error) {
	info, err := s.rankInfo(n)
	if err != nil {
		return nil, err
	}
	if info.fits {
		r, err := s.rankExpr64(n)
		if err != nil {
			return nil, err
		}
		return wideFromU64(r), nil
	}
	var rl []uint64
	base := []uint64{1}
	for i, child := range n.Children {
		x := &s.ctx[info.slots[i]]
		j, err := childIndex(x, n, i)
		if err != nil {
			return nil, err
		}
		childLocal, err := s.rankExprWide(child)
		if err != nil {
			return nil, err
		}
		rl = wideAdd(rl, wideMul(wideAdd(x.prefixAt(j), childLocal), base))
		base = wideMul(base, x.base())
	}
	return rl, nil
}

// prefixAt returns the context's j-th prefix sum as canonical limbs.
func (x *ctxInfo) prefixAt(j int) []uint64 {
	if x.bW != nil {
		return x.prefixW[j]
	}
	return wideFromU64(x.prefix64[j])
}

// base returns the context's base as canonical limbs.
func (x *ctxInfo) base() []uint64 {
	if x.bW != nil {
		return x.bW
	}
	return wideFromU64(x.b64)
}
