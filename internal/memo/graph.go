package memo

import (
	"unsafe"

	"repro/internal/algebra"
)

// Graph is the memo's AND/OR plan graph, the links of the paper's
// Section 3.1 derived once for every consumer. An OR node is a
// context: a group together with the ordering a parent requires of it.
// Its candidates are the group's physical operators, in Group.Physical
// order, whose delivered ordering satisfies that requirement. An
// enforcer-input context holds the group's non-enforcers instead, which
// is what a Sort enforcer may take as input. An AND node is a physical
// operator: each of its child slots names the context it draws from.
//
// Counting, ranking and unranking (internal/core) and the winner search
// (internal/opt) all index the same contexts, so a candidate list is
// derived once per (group, requirement) rather than once per operator
// slot. A Graph is immutable and safe for concurrent readers.
type Graph struct {
	// Ctxs holds every context some slot draws from, plus Root.
	Ctxs []Ctx

	// Slots[e.ID] lists, per child slot of physical operator e, the
	// index in Ctxs of the context the slot draws from. An enforcer's
	// single slot draws from its group's enforcer-input context. Leaves
	// and logical operators have none.
	Slots [][]int32

	// GroupCtxs[g.ID] lists the indexes of the contexts over group g,
	// in creation order.
	GroupCtxs [][]int32

	// Root is the root group's unconstrained context: every physical
	// root operator, each covering a contiguous range of plan ranks.
	Root int32
}

// Ctx is one context of the plan graph.
type Ctx struct {
	Group         *Group
	Order         algebra.Ordering // the required ordering (nil: any)
	EnforcerInput bool             // candidates are the group's non-enforcers
	Cands         []*Expr          // in Group.Physical order
}

// Graph returns the memo's plan graph, deriving it on first use. The
// memo must be fully expanded by then: deriving the graph seals the
// memo, releasing every group's dedup index, and AddExpr panics from
// then on.
func (m *Memo) Graph() *Graph {
	m.graphOnce.Do(func() {
		for _, g := range m.Groups {
			g.dedup = nil
		}
		m.graph = buildGraph(m)
	})
	return m.graph
}

// RequiredOf returns the ordering e imposes on child slot i (nil when
// the slot is unconstrained or Required was left sparse).
func (e *Expr) RequiredOf(i int) algebra.Ordering {
	if i < len(e.Required) {
		return e.Required[i]
	}
	return nil
}

// buildGraph is the one place the memo's AND/OR structure is derived
// from the operators' ordering contracts.
func buildGraph(m *Memo) *Graph {
	maxG, maxE, nslots := 0, 0, 0
	for _, g := range m.Groups {
		maxG = max(maxG, g.ID)
		for _, e := range g.Exprs {
			maxE = max(maxE, e.ID)
		}
		for _, e := range g.Physical {
			nslots += slotCount(e)
		}
	}
	gr := &Graph{Slots: make([][]int32, maxE+1), GroupCtxs: make([][]int32, maxG+1)}
	ctxOf := func(g *Group, req algebra.Ordering, enf bool) int32 {
		for _, c := range gr.GroupCtxs[g.ID] {
			if x := &gr.Ctxs[c]; x.EnforcerInput == enf && x.Order.Equal(req) {
				return c
			}
		}
		var cands []*Expr
		for _, e := range g.Physical {
			if enf && !e.IsEnforcer() || !enf && e.Delivered.Satisfies(req) {
				cands = append(cands, e)
			}
		}
		c := int32(len(gr.Ctxs))
		gr.Ctxs = append(gr.Ctxs, Ctx{Group: g, Order: req, EnforcerInput: enf, Cands: cands})
		gr.GroupCtxs[g.ID] = append(gr.GroupCtxs[g.ID], c)
		return c
	}
	if m.Root != nil {
		gr.Root = ctxOf(m.Root, nil, false)
	}
	slab := make([]int32, nslots)
	for _, g := range m.Groups {
		for _, e := range g.Physical {
			k := slotCount(e)
			if k == 0 {
				continue
			}
			slots := slab[:k:k]
			slab = slab[k:]
			if e.IsEnforcer() {
				slots[0] = ctxOf(g, nil, true)
			} else {
				for i, cg := range e.Children {
					slots[i] = ctxOf(cg, e.RequiredOf(i), false)
				}
			}
			gr.Slots[e.ID] = slots
		}
	}
	return gr
}

// slotCount is the number of child slots of physical operator e: an
// enforcer has exactly one, over its own group.
func slotCount(e *Expr) int {
	if e.IsEnforcer() {
		return 1
	}
	return len(e.Children)
}

// MemoryBytes estimates the graph's resident size, for the structure
// cache's byte accounting.
func (gr *Graph) MemoryBytes() int64 {
	const header = int64(unsafe.Sizeof([]int32(nil)))
	n := int64(len(gr.Ctxs))*int64(unsafe.Sizeof(Ctx{})) +
		int64(len(gr.Slots)+len(gr.GroupCtxs))*header
	for i := range gr.Ctxs {
		n += int64(len(gr.Ctxs[i].Cands)) * 8
	}
	for _, s := range gr.Slots {
		n += int64(len(s)) * 4
	}
	for _, s := range gr.GroupCtxs {
		n += int64(len(s)) * 4
	}
	return n
}
