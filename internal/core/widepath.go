package core

import (
	"fmt"
	"math/big"

	"repro/internal/memo"
	"repro/internal/plan"
)

// This file wires the wide limb arithmetic of wide.go into the paper's
// bijection: rank-range selection over wide prefix sums, mixed-radix
// decomposition with wide (or single-limb) bases, rank reconstruction,
// and the glue that hands any subtree whose count fits uint64 straight
// to the native decomposer in fast.go. Every temporary is carved from a
// WideArena, so a warmed UnrankWideInto performs zero heap allocations.

// errNotWide reports use of a wide-only entry point off the wide tier.
func (s *Space) errNotWide() error {
	return fmt.Errorf("core: space runs on the uint64 tier, not wide; use the matching API")
}

// UnrankWide constructs the plan with canonical little-endian rank r on
// the wide tier, allocating fresh nodes (the returned plan is
// independent of the space and of any arena). r is not modified.
func (s *Space) UnrankWide(r []uint64) (*plan.Node, error) {
	var wa WideArena
	return s.unrankWide(r, nil, &wa)
}

// UnrankWideInto is UnrankWide building the plan inside a, reusing its
// node and limb buffers: after the arena has warmed up, the call
// performs no heap allocation. The returned plan is valid until the
// next unranking call or Reset on the same arena. r may point into a
// caller-owned buffer; it is copied before decomposition.
func (s *Space) UnrankWideInto(r []uint64, a *Arena) (*plan.Node, error) {
	if a == nil {
		return s.UnrankWide(r)
	}
	a.Reset()
	return s.unrankWide(r, a, &a.wide)
}

func (s *Space) unrankWide(r []uint64, a *Arena, wa *WideArena) (*plan.Node, error) {
	if s.fits {
		return nil, s.errNotWide()
	}
	r = wideNorm(r)
	if wideCmp(r, s.totalW) >= 0 {
		return nil, fmt.Errorf("core: rank %s out of range [0, %s)", limbsToBig(r), s.total)
	}
	e, local := s.root.pick(wa.put(r))
	if info := s.info[e.ID]; info.fits {
		v, _ := wideToU64(local)
		return s.unrankExpr64(e, v, a)
	}
	return s.unrankExprWide(e, local, a, wa)
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
		x := &s.ctx[c]
		var sub []uint64
		if x.bW == nil {
			// Single-limb lane: the context's base and prefix sums fit
			// uint64 even though the node as a whole does not.
			b := x.b64
			if b == 0 {
				return nil, fmt.Errorf("core: operator %s has no candidates for child %d", e.Name(), i)
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
				r0 = q
				if r0 == 0 {
					rem = rem[:0]
				} else {
					rem = rem[:1]
					rem[0] = r0
				}
			} else {
				rem, sub64 = wideDivModU64(rem, b)
			}
			sub = wa.Alloc(1)
			sub[0] = sub64
		} else {
			rem, sub = wideDivMod(rem, x.bW, wa)
		}
		child, childLocal := x.pick(sub)
		var (
			ch  *plan.Node
			err error
		)
		if ci := s.info[child.ID]; ci != nil && ci.fits {
			v, _ := wideToU64(childLocal)
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
		return nil, fmt.Errorf("core: local rank overflow at operator %s", e.Name())
	}
	return node, nil
}

// rankWide computes the rank of a plan on the wide tier — the inverse
// of UnrankWide. It allocates (ranking is an API operation, not the
// sampling hot loop).
func (s *Space) rankWide(n *plan.Node) (*big.Int, error) {
	if s.fits {
		return nil, s.errNotWide()
	}
	k := indexOf(s.root.cands, n.Expr)
	if k >= 0 {
		local, err := s.rankExprWide(n)
		if err != nil {
			return nil, err
		}
		return limbsToBig(wideAdd(local, s.root.prefixAt(k))), nil
	}
	return nil, fmt.Errorf("core: plan root %s is not a root-group operator of this space", n.Expr.Name())
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
