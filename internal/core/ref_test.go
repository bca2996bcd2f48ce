package core

import (
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/memo"
	"repro/internal/plan"
)

// refSpace is the test-only reference implementation of the paper's
// Section 3 recurrences, written straight from the definitions in
// math/big:
//
//	w(v)[i] = operators of child group i whose delivered ordering
//	          satisfies what v requires of slot i (enforcers: the
//	          non-enforcers of their own group)
//	b_v(i)  = Σ_{w in w(v)[i]} N(w)
//	N(v)    = Π_i b_v(i)            (1 for leaves)
//	N       = Σ_{v in root group} N(v)
//
// It derives every candidate list from the memo on demand and shares no
// code with the production tiers — not Space, exprInfo, slots(), the
// arenas, magicDiv, or any limb helper — so a bug in candidate linking
// or in either tier's arithmetic shows up as a disagreement with it.
type refSpace struct {
	keep  func(*memo.Expr) bool
	n     map[*memo.Expr]*big.Int
	roots []*memo.Expr // root operators with N(v) > 0, in declaration order
	total *big.Int
}

// newRef counts the space of m restricted to operators keep accepts
// (nil keeps every operator).
func newRef(m *memo.Memo, keep func(*memo.Expr) bool) *refSpace {
	if keep == nil {
		keep = func(*memo.Expr) bool { return true }
	}
	r := &refSpace{keep: keep, n: make(map[*memo.Expr]*big.Int), total: new(big.Int)}
	for _, e := range m.Root.Physical {
		if !keep(e) {
			continue
		}
		if n := r.count(e); n.Sign() > 0 {
			r.roots = append(r.roots, e)
			r.total.Add(r.total, n)
		}
	}
	return r
}

// arity is the number of child slots of e: an enforcer has one slot
// over its own group, every other operator one per child group.
func arity(e *memo.Expr) int {
	if e.IsEnforcer() {
		return 1
	}
	return len(e.Children)
}

// cands is w(e)[i], recomputed from the memo on every call.
func (r *refSpace) cands(e *memo.Expr, i int) []*memo.Expr {
	var out []*memo.Expr
	if e.IsEnforcer() {
		for _, c := range e.Group.NonEnforcers() {
			if r.keep(c) {
				out = append(out, c)
			}
		}
		return out
	}
	req := plan.RequiredOf(e, i)
	for _, c := range e.Children[i].Physical {
		if r.keep(c) && c.Delivered.Satisfies(req) {
			out = append(out, c)
		}
	}
	return out
}

// base is b_e(i).
func (r *refSpace) base(e *memo.Expr, i int) *big.Int {
	b := new(big.Int)
	for _, c := range r.cands(e, i) {
		b.Add(b, r.count(c))
	}
	return b
}

// count is N(e), memoized.
func (r *refSpace) count(e *memo.Expr) *big.Int {
	if n, ok := r.n[e]; ok {
		return n
	}
	n := big.NewInt(1)
	for i := 0; i < arity(e); i++ {
		n.Mul(n, r.base(e, i))
	}
	r.n[e] = n
	return n
}

// Count returns N.
func (r *refSpace) Count() *big.Int { return new(big.Int).Set(r.total) }

// CountFor returns N(e) (zero for operators outside the space).
func (r *refSpace) CountFor(e *memo.Expr) *big.Int {
	if !r.keep(e) {
		return new(big.Int)
	}
	return new(big.Int).Set(r.count(e))
}

// Unrank builds the plan with rank k: pick the root operator whose
// cumulative range holds k, then split the local rank little-endian in
// the mixed radix b_v(0), b_v(1), ... and recurse into each slot's
// candidate list by cumulative counts.
func (r *refSpace) Unrank(k *big.Int) (*plan.Node, error) {
	if k.Sign() < 0 || k.Cmp(r.total) >= 0 {
		return nil, fmt.Errorf("ref: rank %s out of range [0, %s)", k, r.total)
	}
	e, local := pick(r.roots, r.count, new(big.Int).Set(k))
	return r.unrank(e, local), nil
}

// pick returns the list entry whose cumulative count range holds k,
// and k's offset within it.
func pick(list []*memo.Expr, count func(*memo.Expr) *big.Int, k *big.Int) (*memo.Expr, *big.Int) {
	for _, e := range list {
		n := count(e)
		if k.Cmp(n) < 0 {
			return e, k
		}
		k.Sub(k, n)
	}
	panic("ref: rank beyond the list's total count")
}

func (r *refSpace) unrank(e *memo.Expr, local *big.Int) *plan.Node {
	node := &plan.Node{Expr: e}
	rem := new(big.Int).Set(local)
	for i := 0; i < arity(e); i++ {
		digit := new(big.Int)
		rem.QuoRem(rem, r.base(e, i), digit)
		c, sub := pick(r.cands(e, i), r.count, digit)
		node.Children = append(node.Children, r.unrank(c, sub))
	}
	return node
}

// Rank is the inverse of Unrank.
func (r *refSpace) Rank(p *plan.Node) (*big.Int, error) {
	offset := new(big.Int)
	for _, e := range r.roots {
		if e == p.Expr {
			local, err := r.rank(p)
			if err != nil {
				return nil, err
			}
			return local.Add(local, offset), nil
		}
		offset.Add(offset, r.count(e))
	}
	return nil, fmt.Errorf("ref: plan root %s is not a root operator of the space", p.Expr.Name())
}

func (r *refSpace) rank(p *plan.Node) (*big.Int, error) {
	e := p.Expr
	if len(p.Children) != arity(e) {
		return nil, fmt.Errorf("ref: %s has %d child slots, plan node has %d", e.Name(), arity(e), len(p.Children))
	}
	local := new(big.Int)
	weight := big.NewInt(1)
	for i, child := range p.Children {
		digit := new(big.Int)
		found := false
		for _, c := range r.cands(e, i) {
			if c == child.Expr {
				found = true
				break
			}
			digit.Add(digit, r.count(c))
		}
		if !found {
			return nil, fmt.Errorf("ref: %s is not a candidate for slot %d of %s", child.Expr.Name(), i, e.Name())
		}
		sub, err := r.rank(child)
		if err != nil {
			return nil, err
		}
		digit.Add(digit, sub)
		local.Add(local, digit.Mul(digit, weight))
		weight.Mul(weight, r.base(e, i))
	}
	return local, nil
}

// refSampler re-implements the sampler's draw rule: each attempt takes
// ⌈bits(N)/64⌉ generator words, most significant first, shifts the top
// word right so the draw has exactly bits(N) bits, and rejects draws
// ≥ N.
type refSampler struct {
	rng   *rand.Rand
	n     *big.Int
	words int
	shift uint
}

// NewSampler returns a reference sampler with the production seeding.
func (r *refSpace) NewSampler(seed int64) *refSampler {
	bits := r.total.BitLen()
	words := (bits + 63) / 64
	return &refSampler{
		rng:   rand.New(rand.NewSource(seed)),
		n:     r.total,
		words: words,
		shift: uint(words*64 - bits),
	}
}

// NextRank draws one uniform rank in [0, N).
func (s *refSampler) NextRank() *big.Int {
	for {
		k := new(big.Int)
		for i := 0; i < s.words; i++ {
			w := s.rng.Uint64()
			if i == 0 {
				w >>= s.shift
			}
			k.Lsh(k, 64)
			k.Add(k, new(big.Int).SetUint64(w))
		}
		if k.Cmp(s.n) < 0 {
			return k
		}
	}
}

// bigFromLimbs reads little-endian 64-bit limbs into a big.Int without
// the production conversion helpers.
func bigFromLimbs(x []uint64) *big.Int {
	out := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		out.Lsh(out, 64)
		out.Add(out, new(big.Int).SetUint64(x[i]))
	}
	return out
}
