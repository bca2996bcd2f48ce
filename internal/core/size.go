package core

import "unsafe"

// Rough per-object overheads used by MemoryFootprint. Exact sizeofs
// are not the point — the cache's byte accounting needs a consistent,
// monotone estimate of how much a counted space pins, dominated by the
// per-context count tables this file walks precisely.
const (
	bigIntOverhead = 32  // big.Int header + word-slice header
	sliceOverhead  = 24  // slice header
	memoExprBytes  = 256 // memo.Expr with typical payload
	memoGroupBytes = 192 // memo.Group sans Exprs slices
)

// Slab and context node sizes.
const (
	exprInfoBytes = int64(unsafe.Sizeof(exprInfo{}))
	ctxInfoBytes  = int64(unsafe.Sizeof(ctxInfo{}))
)

// MemoryFootprint estimates the resident bytes of the counted space:
// the MEMO it pins (groups, operators and the plan graph) plus the
// count tables of whichever tier serves it — one node per counted
// operator, one base and prefix row per context, filtered candidate
// lists, and the limb arena (which backs every uint64 prefix row and
// every wide count, base, and prefix-sum table). Wide spaces charge
// their full prefix-sum storage, so the SpaceCache's byte-budget
// eviction prices a wide Q8+cross space honestly instead of assuming
// the uint64 layout.
func (s *Space) MemoryFootprint() int64 {
	n := sliceOverhead + int64(len(s.info))*8
	n += int64(len(s.slab)) * exprInfoBytes
	n += sliceOverhead + int64(len(s.ctx))*ctxInfoBytes
	for i := range s.ctx {
		n += int64(len(s.ctx[i].prefixW)) * sliceOverhead
	}
	n += s.cands.memoryBytes()
	n += bigIntOverhead + int64(len(s.total.Bits()))*8
	n += s.tab.MemoryBytes()

	if s.Memo != nil {
		st := s.Memo.Stats()
		n += int64(st.Groups)*memoGroupBytes +
			int64(st.LogicalOps+st.PhysicalOps)*memoExprBytes
		n += s.graph.MemoryBytes()
	}
	return n
}
