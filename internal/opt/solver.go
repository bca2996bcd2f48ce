package opt

import (
	"fmt"
	"math"

	"repro/internal/memo"
	"repro/internal/plan"
)

// solution is one costing's winner tables over the memo's plan graph:
// the per-operator total cost of the cheapest plan rooted there (an
// operator's cost is independent of the demanded ordering — contexts
// only filter which operators qualify) and the per-context winning
// operator. An enforcer's slot draws from its group's enforcer-input
// context, whose winner is the group's best non-enforcer.
type solution struct {
	graph   *memo.Graph
	cost    []float64    // by expr ID: total cost of the best plan rooted at the operator (+Inf: no complete plan)
	win     []*memo.Expr // by context: winning operator (nil: no plan)
	winCost []float64    // by context: the winner's cost (+Inf: no plan)
}

// solve runs the bottom-up (min,+) pass. Groups are processed in ID
// order, which is topological for every memo builder in the repo
// (children are created before the operators that reference them);
// a violation is reported as an error rather than silently miscosted.
// Within a group, non-enforcers are costed first, then the
// enforcer-input context is solved, then the enforcers that take it as
// input, then the group's remaining contexts.
func (c *Costing) solve() error {
	sol, gr := c.sol, c.sol.graph
	for i := range sol.cost {
		sol.cost[i] = math.Inf(1)
	}
	solved := make([]bool, len(gr.Ctxs))
	var cc [8]float64
	costOps := func(g *memo.Group, enforcers bool) error {
		for _, e := range g.Physical {
			if e.IsEnforcer() != enforcers {
				continue
			}
			slots := gr.Slots[e.ID]
			if len(slots) > len(cc) {
				return fmt.Errorf("opt: operator %s has %d children, solver supports %d", e.Name(), len(slots), len(cc))
			}
			feasible := true
			for i, k := range slots {
				if !solved[k] {
					return fmt.Errorf("opt: memo group %d referenced before it was solved (not topologically ordered)", gr.Ctxs[k].Group.ID)
				}
				if cc[i] = sol.winCost[k]; math.IsInf(cc[i], 1) {
					feasible = false // requirement unsatisfiable in this child
					break
				}
			}
			if !feasible {
				continue
			}
			total, err := c.Model.Combine(e, cc[:len(slots)])
			if err != nil {
				return err
			}
			if math.IsNaN(total) || math.IsInf(total, 0) {
				return fmt.Errorf("opt: non-finite cost for operator %s", e.Name())
			}
			sol.cost[e.ID] = total
		}
		return nil
	}
	// Context winners: first strict minimum in Physical order, among
	// the operators with a complete plan.
	solveCtxs := func(g *memo.Group, enforcerInput bool) {
		for _, k := range gr.GroupCtxs[g.ID] {
			if gr.Ctxs[k].EnforcerInput != enforcerInput {
				continue
			}
			var best *memo.Expr
			bestCost := math.Inf(1)
			for _, e := range gr.Ctxs[k].Cands {
				if c := sol.cost[e.ID]; c < bestCost {
					best, bestCost = e, c
				}
			}
			sol.win[k], sol.winCost[k] = best, bestCost
			solved[k] = true
		}
	}
	for _, g := range c.Memo.Groups {
		if err := costOps(g, false); err != nil {
			return err
		}
		solveCtxs(g, true)
		if err := costOps(g, true); err != nil {
			return err
		}
		solveCtxs(g, false)
	}
	return nil
}

// nodeOf materializes the winner plan rooted at operator e (which must
// have a complete plan). Nodes are shared across parents through built:
// the winner trees form a DAG over at most one node per operator.
func (c *Costing) nodeOf(e *memo.Expr, built map[*memo.Expr]*plan.Node) *plan.Node {
	if n := built[e]; n != nil {
		return n
	}
	var kids []*plan.Node
	if slots := c.sol.graph.Slots[e.ID]; len(slots) > 0 {
		kids = make([]*plan.Node, len(slots))
		for i, k := range slots {
			kids[i] = c.nodeOf(c.sol.win[k], built)
		}
	}
	n := &plan.Node{Expr: e, Children: kids}
	built[e] = n
	return n
}

// MemoryBytes estimates the overlay's own tables: cardinalities, local
// costs, per-operator plan costs and per-context winners (for cache
// byte accounting; the memo and its graph belong to the structure).
func (c *Costing) MemoryBytes() int64 {
	return c.Tables.MemoryBytes() + int64(len(c.sol.cost))*8 + int64(len(c.sol.win))*16
}

// RetainedExprs simulates the paper's remark that "some optimizers by
// default discard suboptimal expressions": it returns the set of
// operators a pruning optimizer would retain — for every context
// reachable from the root, only the winning operator survives.
// Counting plans over this filtered MEMO quantifies how much of the
// space pruning hides from testing (ablation E9).
func (c *Costing) RetainedExprs() map[*memo.Expr]bool {
	sol, gr := c.sol, c.sol.graph
	retained := make(map[*memo.Expr]bool)
	seen := make([]bool, len(gr.Ctxs))
	var visit func(k int32)
	visit = func(k int32) {
		if seen[k] {
			return
		}
		seen[k] = true
		w := sol.win[k]
		if w == nil {
			return
		}
		retained[w] = true
		for _, sk := range gr.Slots[w.ID] {
			visit(sk)
		}
	}
	visit(gr.Root)
	return retained
}
