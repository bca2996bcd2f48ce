package core

import (
	"fmt"

	"repro/internal/memo"
	"repro/internal/plan"
)

// This file is the native uint64 leaf of the walks: the same bijection
// as widepath.go, but with every base, prefix sum and local rank a
// native uint64. The wide walks drop into it at the first operator
// whose whole subtree Prepare counted in uint64 (the root, on a space
// whose total fits), and within such a subtree the mixed-radix
// decomposition cannot overflow: every intermediate value is bounded
// by the subtree's count.

// Arena is a reusable allocation buffer for unranking and cost by
// rank. Plan nodes and child-pointer slices are carved out of backing
// arrays that are truncated — not freed — between calls, so
// steady-state UnrankWideInto and CostWideInto (and their adapters)
// perform zero heap allocations. Plans built from an Arena are valid
// only until the next call that resets it; callers that retain plans
// must use Unrank (fresh allocations) instead. The zero value is ready to use. An Arena
// must not be shared across goroutines.
type Arena struct {
	nodes []plan.Node
	kids  []*plan.Node

	// costs is the cost-by-rank walks' child-cost stack.
	costs []float64

	// wide holds the limb scratch of the wide tier's decomposer, so one
	// Arena serves both tiers alike.
	wide WideArena
}

// Reset recycles the arena, invalidating all plans previously built
// from it.
func (a *Arena) Reset() {
	a.nodes = a.nodes[:0]
	a.kids = a.kids[:0]
	a.costs = a.costs[:0]
	a.wide.Reset()
}

func (a *Arena) newNode(e *memo.Expr) *plan.Node {
	a.nodes = append(a.nodes, plan.Node{Expr: e})
	return &a.nodes[len(a.nodes)-1]
}

func (a *Arena) newChildren(k int) []*plan.Node {
	start := len(a.kids)
	for i := 0; i < k; i++ {
		a.kids = append(a.kids, nil)
	}
	return a.kids[start : start+k : start+k]
}

// unrankExpr64 builds the plan rooted at e with local rank rl in
// [0, N(e)): the mixed-radix digit of slot i is rl's remainder modulo
// the base of the slot's context, selected into the context's
// candidates by prefix sums. a == nil means heap-allocate each node.
func (s *Space) unrankExpr64(e *memo.Expr, rl uint64, a *Arena) (*plan.Node, error) {
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
		if rl != 0 {
			return nil, fmt.Errorf("core: leaf operator %s given non-zero local rank %d", e.Name(), rl)
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
		b := x.b64
		if b == 0 {
			return nil, errNoCandidates(e, i)
		}
		// Division by the slot base rides the precomputed reciprocal: a
		// multiply-high instead of a hardware DIV, per slot, per unrank.
		q := x.div64.quo(rem)
		sub := rem - q*b
		rem = q
		j := selectByPrefix64(x.prefix64, sub)
		child, err := s.unrankExpr64(x.cands[j], sub-x.prefix64[j], a)
		if err != nil {
			return nil, err
		}
		node.Children[i] = child
	}
	if rem != 0 {
		return nil, errRankOverflow(e)
	}
	return node, nil
}

func errNoCandidates(e *memo.Expr, slot int) error {
	return fmt.Errorf("core: operator %s has no candidates for child %d", e.Name(), slot)
}

func errRankOverflow(e *memo.Expr) error {
	return fmt.Errorf("core: local rank overflow at operator %s", e.Name())
}

// selectByPrefix64 returns the index k with prefix[k] <= r <
// prefix[k+1], where prefix[0] = 0 and the last entry is the total. Short candidate lists take a
// linear scan; wide lists take a galloping probe (rank mass is often
// front-loaded) that brackets the answer, then a branch-free binary
// search inside the bracket — the compiler turns the conditional
// advance into a CMOV, so wide candidate lists stop paying one
// mispredicted branch per entry.
func selectByPrefix64(prefix []uint64, r uint64) int {
	n := len(prefix) - 1 // bucket count
	if n <= 8 {
		k := 0
		for k+1 < n && prefix[k+1] <= r {
			k++
		}
		return k
	}
	hi := 1
	for hi < n && prefix[hi] <= r {
		hi <<= 1
	}
	if hi > n {
		hi = n
	}
	base := hi >> 1 // prefix[base] <= r by the gallop invariant
	cnt := hi - base
	for cnt > 1 {
		half := cnt >> 1
		if prefix[base+half] <= r {
			base += half
		}
		cnt -= half
	}
	return base
}

// rankExpr64 is the native leaf of Rank: the local rank of the plan
// rooted at n, whose operator's subtree is counted in uint64.
func (s *Space) rankExpr64(n *plan.Node) (uint64, error) {
	info, err := s.rankInfo(n)
	if err != nil {
		return 0, err
	}
	var rl uint64
	base := uint64(1)
	for i, child := range n.Children {
		x := &s.ctx[info.slots[i]]
		j, err := childIndex(x, n, i)
		if err != nil {
			return 0, err
		}
		childLocal, err := s.rankExpr64(child)
		if err != nil {
			return 0, err
		}
		rl += (x.prefix64[j] + childLocal) * base
		base *= x.b64
	}
	return rl, nil
}

// rankInfo returns the counted node of a plan node's operator, checking
// that the plan gives it one child per slot.
func (s *Space) rankInfo(n *plan.Node) (*exprInfo, error) {
	e := n.Expr
	if e.ID >= len(s.info) || s.info[e.ID] == nil {
		return nil, fmt.Errorf("core: operator %s is not part of this space", e.Name())
	}
	info := s.info[e.ID]
	if len(n.Children) != len(info.slots) {
		return nil, fmt.Errorf("core: operator %s has %d child slots, plan node has %d",
			e.Name(), len(info.slots), len(n.Children))
	}
	return info, nil
}

// childIndex locates plan node n's child i among the candidates of the
// context its slot draws from.
func childIndex(x *ctxInfo, n *plan.Node, i int) (int, error) {
	j := indexOf(x.cands, n.Children[i].Expr)
	if j < 0 {
		return 0, fmt.Errorf("core: %s is not a valid child %d of %s in this space",
			n.Children[i].Expr.Name(), i, n.Expr.Name())
	}
	return j, nil
}

func indexOf(cands []*memo.Expr, e *memo.Expr) int {
	for j, c := range cands {
		if c == e {
			return j
		}
	}
	return -1
}
