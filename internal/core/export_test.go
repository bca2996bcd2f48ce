package core

import (
	"math/big"

	"repro/internal/memo"
)

// Ref is the test-only math/big reference (ref_test.go), exposed to the
// external core_test package.
type Ref = refSpace

// RefSampler is the reference's re-implementation of the sampler's
// draw rule.
type RefSampler = refSampler

// NewRef counts the space of m restricted to operators keep accepts
// (nil keeps every operator) with the reference recurrences.
func NewRef(m *memo.Memo, keep func(*memo.Expr) bool) *Ref { return newRef(m, keep) }

// BigFromLimbs is the reference's limb conversion.
func BigFromLimbs(x []uint64) *big.Int { return bigFromLimbs(x) }

// Graph returns the memo plan graph the space was counted over.
func (s *Space) Graph() *memo.Graph { return s.graph }

// ContextTables reports the space's counted contexts: how many hold a
// candidate list, how many entries those lists hold together, and how
// many prefix-sum rows the space keeps for them.
func (s *Space) ContextTables() (lists, entries, prefixRows int) {
	for i := range s.ctx {
		x := &s.ctx[i]
		if !x.counted {
			continue
		}
		lists++
		entries += len(x.cands)
		if x.prefix64 != nil || x.prefixW != nil {
			prefixRows++
		}
	}
	return lists, entries, prefixRows
}
