// Package core implements the paper's contribution (Section 3): counting
// the execution plans encoded in a MEMO, unranking integers into plans,
// ranking plans back into integers, exhaustive enumeration, and uniform
// random sampling.
//
// The key idea is a bijection between 0..N-1 and the N plans of the
// space. After optimization the MEMO is frozen, and its plan graph
// (memo.Graph) holds the links of Section 3.1 once per context: for
// every (group, required ordering) the operators of the group whose
// delivered ordering satisfies the requirement, and for every group
// with enforcers the non-enforcers an enforcer may take as input. Each
// child slot i of a physical operator v draws from one context, so
// w(v)[i] is that context's candidate list, shared by every slot with
// the same child group and requirement. Prepare counts each context
// once, bottom-up as a product-of-sums (Section 3.2):
//
//	b(c)   = Σ_{w in c} N(w)        alternatives in context c
//	N(v)   = 1 if v is a leaf, else Π_i b(ctx(v, i))
//	N      = b(root context)
//
// with a prefix-sum row per context for rank selection. Unranking
// decomposes a rank into a root-operator choice plus one sub-rank per
// child slot in the mixed-radix system whose digit bases are the slots'
// context bases (Section 3.3). Cost by rank (costrank.go) walks the
// same decomposition and returns the plan's cost without building the
// plan, which is all a sampled plan is usually wanted for.
//
// Arithmetic is tiered. Counting runs bottom-up in overflow-checked
// uint64; when the total N and every reachable base fit in 64 bits —
// true for all of Table 1, which tops out at 4.4·10^12 — rank
// selection, mixed-radix decomposition, ranking, and the sampler's
// rejection loop run on native uint64 with no heap allocations (see
// fast.go). Spaces beyond 2^64 (Q8 with Cartesian products holds
// ~2.7·10^22 plans) route to the wide tier: fixed-allocation
// little-endian []uint64 limb arithmetic (wide.go, widepath.go) whose
// unrank/sample loops are likewise allocation-free after warm-up, and
// which hands any subtree whose count fits uint64 straight back to the
// native path. math/big appears only at the API boundary (Count, Unrank,
// Rank, Enumerate); the differential tests check both tiers against an
// independent math/big reference that lives in the test files.
package core

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/memo"
)

// Option configures Prepare.
type Option func(*config)

type config struct {
	keep      func(*memo.Expr) bool // nil keeps every operator
	forceWide bool
}

// WithFilter restricts the space to operators for which keep returns
// true. The pruning ablation uses it to count the plans a discarding
// optimizer would retain; tests use it to carve sub-spaces.
func WithFilter(keep func(*memo.Expr) bool) Option {
	return func(c *config) { c.keep = keep }
}

// WithWideArithmetic forces the wide limb tier even when the space fits
// uint64, so tests can exercise the wide decomposer, sampler, and
// selection machinery on spaces small enough to enumerate exhaustively.
func WithWideArithmetic() Option {
	return func(c *config) { c.forceWide = true }
}

// exprInfo is one counted operator: the contexts its child slots draw
// from (the plan graph's row for it) and N(v), the product of their
// bases, in the representation of whichever tier serves the node.
type exprInfo struct {
	slots []int32

	// fits means the node's own count and its entire subtree fit in 64
	// bits (and WithWideArithmetic was not given); n64 is N(v) then,
	// and nW holds canonical limbs carved from the space's WideArena
	// otherwise.
	fits bool
	n64  uint64
	nW   []uint64
}

// ctxInfo is one counted context: its candidates under the space's
// filter, the base b = Σ N(w) over them with its prefix sums (for
// rank selection), and the base's reciprocal. Every slot that draws
// from the context shares these tables. bW == nil means the base fits
// uint64 and b64/prefix64 serve it; otherwise bW/prefixW hold
// canonical limbs carved from the space's WideArena.
type ctxInfo struct {
	cands    []*memo.Expr
	b64      uint64
	div64    magicDiv // reciprocal of b64 (valid when b64 > 0)
	prefix64 []uint64
	bW       []uint64
	prefixW  [][]uint64
	counted  bool
}

// wideCount returns N(v) as canonical limbs (valid on the uint64 and
// wide tiers). The returned slice must not be mutated.
func (info *exprInfo) wideCount(scratch *[1]uint64) []uint64 {
	if !info.fits {
		return info.nW
	}
	if info.n64 == 0 {
		return nil
	}
	scratch[0] = info.n64
	return scratch[:1]
}

// Space is a frozen, counted search space. It is immutable after Prepare
// and safe for concurrent Unrank/Rank calls; create one Sampler per
// goroutine for sampling.
type Space struct {
	Memo  *memo.Memo
	graph *memo.Graph

	info  []*exprInfo // indexed by memo.Expr.ID
	slab  []exprInfo  // backing store: one contiguous block, no per-node allocation
	ctx   []ctxInfo   // indexed like graph.Ctxs; counted only where a kept operator draws
	root  *ctxInfo    // the root context: one rank range per root operator
	cands candArena   // backing store for the filtered candidate lists (WithFilter)

	total *big.Int // N, synthesized on both tiers for the API surface

	// fits is true when the total count (and therefore every reachable
	// base and prefix sum) fits in uint64 and WithWideArithmetic was
	// not given; total64 is N then. Otherwise the wide tier serves the
	// space and totalW is N.
	fits    bool
	total64 uint64
	totalW  []uint64
	tab     WideArena // backing store for every count table
}

// Prepare counts the space over the memo's plan graph. It is the
// post-processing step the paper describes as having negligible
// overhead: linear in the number of operators and contexts.
func Prepare(m *memo.Memo, opts ...Option) (*Space, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if m.Root == nil {
		return nil, fmt.Errorf("core: memo has no root group")
	}
	gr := m.Graph()
	kept := 0
	for _, g := range m.Groups {
		for _, e := range g.Physical {
			if cfg.keeps(e) {
				kept++
			}
		}
	}
	// One contiguous slab for every node: the unrank hot loop chases
	// info pointers once per operator, and packing them (like the limb
	// arena packs the count tables) is worth real latency on memos with
	// tens of thousands of operators.
	s := &Space{
		Memo: m, graph: gr,
		info: make([]*exprInfo, len(gr.Slots)),
		slab: make([]exprInfo, 0, kept),
		ctx:  make([]ctxInfo, len(gr.Ctxs)),
	}

	// Count every kept physical operator (bottom-up via memoized
	// recursion; the graph is acyclic because enforcers take only
	// non-enforcers of their own group and all other operators
	// reference strictly earlier layers).
	for _, g := range m.Groups {
		for _, e := range g.Physical {
			if cfg.keeps(e) {
				s.countExpr(e, &cfg)
			}
		}
	}

	// Each root operator covers a contiguous rank range in declaration
	// order; the root context's prefix sums drive rank-to-operator
	// selection on both tiers.
	s.countCtx(gr.Root, &cfg)
	s.root = &s.ctx[gr.Root]
	if s.root.bW == nil && !cfg.forceWide {
		s.fits = true
		s.total64 = s.root.b64
		s.total = new(big.Int).SetUint64(s.total64)
		return s, nil
	}
	s.totalW = s.root.bW
	if s.totalW == nil {
		s.totalW = s.tab.put(wideFromU64(s.root.b64))
	}
	s.total = limbsToBig(s.totalW)
	return s, nil
}

func (c *config) keeps(e *memo.Expr) bool { return c.keep == nil || c.keep(e) }

// candArena packs filtered candidate lists into stable chunked backing
// arrays (the same mechanism as WideArena — see chunked in arena.go),
// so the unrank hot loop's cands[j] loads land in a handful of
// contiguous blocks instead of one heap object per context.
type candArena struct {
	a chunked[*memo.Expr]
}

func (a *candArena) put(xs []*memo.Expr) []*memo.Expr { return a.a.put(xs, 512) }

func (a *candArena) memoryBytes() int64 { return int64(a.a.elems()) * 8 }

// countCtx fills context c's tables once: b = Σ N(w) over its kept
// candidates, in overflow-checked uint64 with a wide-limb spill. A
// context that overflows 64 bits (or draws from a node that does)
// switches to exact []uint64 accumulation seeded from the checked
// prefix run, so spaces of any size are counted exactly without
// math/big, and contexts that fit keep their native row for the fast
// lanes.
func (s *Space) countCtx(c int32, cfg *config) {
	x := &s.ctx[c]
	if x.counted {
		return
	}
	x.counted = true // safe before the recursion: the graph is acyclic
	cands := s.graph.Ctxs[c].Cands
	if cfg.keep != nil {
		var scratch [64]*memo.Expr
		kept := scratch[:0]
		for _, e := range cands {
			if cfg.keep(e) {
				kept = append(kept, e)
			}
		}
		cands = s.cands.put(kept)
	}
	x.cands = cands

	// The uint64 rows are carved from the space's limb arena: every
	// prefix-sum row of the whole space lands in a handful of
	// contiguous chunks.
	var b64 uint64
	prefix64 := s.tab.Alloc(len(cands) + 1)[:1]
	fits := true
	var bW []uint64
	var prefixW [][]uint64
	var scratch [1]uint64
	for _, e := range cands {
		s.countExpr(e, cfg)
		ci := s.info[e.ID]
		if fits && ci.fits {
			sum, carry := bits.Add64(b64, ci.n64, 0)
			if carry == 0 {
				b64 = sum
				prefix64 = append(prefix64, b64)
				continue
			}
		}
		if fits {
			// Spill: seed the exact wide accumulators from the checked
			// uint64 prefix run, which is exact so far.
			fits = false
			prefixW = make([][]uint64, 0, len(cands)+1)
			for _, p := range prefix64 {
				prefixW = append(prefixW, wideFromU64(p))
			}
			bW = wideFromU64(b64)
		}
		bW = wideAdd(bW, ci.wideCount(&scratch))
		prefixW = append(prefixW, bW)
	}
	if fits {
		x.b64, x.prefix64 = b64, prefix64
		if b64 > 0 {
			// The decomposition divides by this base on every unrank.
			x.div64 = newMagicDiv(b64)
		}
		return
	}
	x.bW = s.tab.put(bW)
	x.prefixW = make([][]uint64, len(prefixW))
	for k, p := range prefixW {
		x.prefixW[k] = s.tab.put(p)
	}
}

// countExpr computes N(v) as the product of v's slot context bases:
// checked uint64 while it lasts, exact wide limbs afterwards.
func (s *Space) countExpr(e *memo.Expr, cfg *config) {
	if s.info[e.ID] != nil {
		return
	}
	info := s.newInfo(e)
	info.slots = s.graph.Slots[e.ID]
	info.fits, info.n64 = true, 1
	var nW []uint64
	for _, c := range info.slots {
		s.countCtx(c, cfg)
		x := &s.ctx[c]
		if info.fits && x.bW == nil {
			hi, lo := bits.Mul64(info.n64, x.b64)
			if hi == 0 {
				info.n64 = lo
				continue
			}
		}
		if info.fits {
			info.fits = false
			nW = wideFromU64(info.n64)
			info.n64 = 0
		}
		base := x.bW
		if base == nil {
			base = wideFromU64(x.b64)
		}
		nW = wideMul(nW, base)
	}
	if !info.fits {
		info.nW = s.tab.put(nW)
	} else if cfg.forceWide {
		// The forced wide tier treats every node as wide so the wide
		// decomposer runs end to end.
		info.nW = s.tab.put(wideFromU64(info.n64))
		info.fits = false
		info.n64 = 0
	}
}

// newInfo hands out the next slab slot for an operator. The slab was
// sized to the kept-operator count, so append never reallocates and
// the returned pointer is stable; should an unexpected operator surface
// anyway, it falls back to a heap node rather than dangling the slab.
func (s *Space) newInfo(e *memo.Expr) *exprInfo {
	var info *exprInfo
	if len(s.slab) < cap(s.slab) {
		s.slab = append(s.slab, exprInfo{})
		info = &s.slab[len(s.slab)-1]
	} else {
		info = &exprInfo{}
	}
	s.info[e.ID] = info
	return info
}

// wideFromU64 lifts a native value to canonical limbs.
func wideFromU64(v uint64) []uint64 {
	if v == 0 {
		return nil
	}
	return []uint64{v}
}

// Count returns N, the number of complete execution plans the space
// encodes. The returned value must not be mutated.
func (s *Space) Count() *big.Int { return s.total }

// FitsUint64 reports whether the uint64 fast path is active: the total
// N (and with it every base and prefix sum reachable during unranking)
// fits in 64 bits and WithWideArithmetic was not given. When true,
// Unrank64, Rank64, UnrankInto, SampleRanks, and the pull iterator are
// available and Unrank/Rank/Sampler dispatch to uint64 arithmetic
// internally.
func (s *Space) FitsUint64() bool { return s.fits }

// Wide reports whether the wide limb tier serves the space — the
// production path for every space beyond uint64 (and any space forced
// with WithWideArithmetic).
func (s *Space) Wide() bool { return !s.fits }

// CountUint64 returns N as a native uint64 when the fast path is
// active; ok is false on the wide tier.
func (s *Space) CountUint64() (n uint64, ok bool) { return s.total64, s.fits }

// Arithmetic names the tier serving the space — "uint64" or "wide" —
// the canonical label for exports, reports, and CLIs.
func (s *Space) Arithmetic() string {
	if s.fits {
		return "uint64"
	}
	return "wide"
}

// RankLimbs returns the number of 64-bit limbs a rank of this space
// occupies — the buffer size for NextRankInto and UnrankWideInto
// callers.
func (s *Space) RankLimbs() int {
	if s.fits || len(s.totalW) == 0 {
		return 1
	}
	return len(s.totalW)
}

// CountFor returns N(v) for a specific operator — the number of plans
// rooted in it (Figure 3's per-operator annotations). Zero for operators
// filtered out of the space.
func (s *Space) CountFor(e *memo.Expr) *big.Int {
	if e.ID >= len(s.info) || s.info[e.ID] == nil {
		return new(big.Int)
	}
	info := s.info[e.ID]
	if info.fits {
		return new(big.Int).SetUint64(info.n64)
	}
	return limbsToBig(info.nW)
}

// OperatorCount reports how many operators were counted — the paper's
// complexity claim is that counting visits each exactly once.
func (s *Space) OperatorCount() int {
	n := 0
	for _, info := range s.info {
		if info != nil {
			n++
		}
	}
	return n
}
