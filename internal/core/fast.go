package core

import (
	"fmt"

	"repro/internal/memo"
	"repro/internal/plan"
)

// This file is the uint64 arithmetic path: the same bijection as
// unrank.go, but with every base, prefix sum, and rank a native uint64.
// It is only reachable when Space.FitsUint64() is true, which Prepare
// establishes with overflow-checked counting; within that regime the
// mixed-radix decomposition cannot overflow (every intermediate value
// is bounded by the total).

// Arena is a reusable allocation buffer for the fast unranking path.
// Plan nodes and child-pointer slices are carved out of backing arrays
// that are truncated — not freed — between calls, so steady-state
// UnrankInto performs zero heap allocations. Plans built from an Arena
// are valid only until the next call that resets it; callers that
// retain plans must use Unrank64 (fresh allocations) instead. The zero
// value is ready to use. An Arena must not be shared across goroutines.
type Arena struct {
	nodes []plan.Node
	kids  []*plan.Node

	// wide holds the limb scratch of the wide tier's decomposer, so one
	// Arena serves UnrankInto and UnrankWideInto alike.
	wide WideArena
}

// Reset recycles the arena, invalidating all plans previously built
// from it.
func (a *Arena) Reset() {
	a.nodes = a.nodes[:0]
	a.kids = a.kids[:0]
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

// errNotUint64 reports use of a uint64-only entry point on a space served
// by the wide tier.
func (s *Space) errNotUint64() error {
	return fmt.Errorf("core: space holds %s plans on the wide tier, beyond the uint64 fast path; use the wide or big.Int API", s.total)
}

// Unrank64 constructs the plan with rank r on the uint64 fast path,
// allocating fresh nodes (the returned plan is independent of the
// space and of any arena). It fails when the space is served by the
// wide tier.
func (s *Space) Unrank64(r uint64) (*plan.Node, error) {
	return s.unrank64(r, nil)
}

// UnrankInto is Unrank64 building the plan inside a, reusing its
// buffers: after the arena has warmed up, the call performs no heap
// allocation. The returned plan is valid until the next UnrankInto or
// Reset on the same arena.
func (s *Space) UnrankInto(r uint64, a *Arena) (*plan.Node, error) {
	if a == nil {
		return s.unrank64(r, nil)
	}
	a.Reset()
	return s.unrank64(r, a)
}

func (s *Space) unrank64(r uint64, a *Arena) (*plan.Node, error) {
	if !s.fits {
		return nil, s.errNotUint64()
	}
	if r >= s.total64 {
		return nil, fmt.Errorf("core: rank %d out of range [0, %d)", r, s.total64)
	}
	root := s.root
	k := selectByPrefix64(root.prefix64, r)
	return s.unrankExpr64(root.cands[k], r-root.prefix64[k], a)
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
			return nil, fmt.Errorf("core: operator %s has no candidates for child %d", e.Name(), i)
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
		return nil, fmt.Errorf("core: local rank overflow at operator %s", e.Name())
	}
	return node, nil
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

// Rank64 computes the rank of a plan on the uint64 fast path — the
// inverse of Unrank64.
func (s *Space) Rank64(n *plan.Node) (uint64, error) {
	if !s.fits {
		return 0, s.errNotUint64()
	}
	k := indexOf(s.root.cands, n.Expr)
	if k < 0 {
		return 0, fmt.Errorf("core: plan root %s is not a root-group operator of this space", n.Expr.Name())
	}
	local, err := s.rankExpr64(n)
	if err != nil {
		return 0, err
	}
	return local + s.root.prefix64[k], nil
}

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

// UnrankBatch unranks every rank into a freshly allocated plan. It is
// the bulk companion of Sampler.SampleRanks: draw a batch of ranks,
// then materialize the plans that must outlive any arena.
func (s *Space) UnrankBatch(ranks []uint64) ([]*plan.Node, error) {
	if !s.fits {
		return nil, s.errNotUint64()
	}
	out := make([]*plan.Node, len(ranks))
	for i, r := range ranks {
		p, err := s.unrank64(r, nil)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}
