package engine

import (
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/plan"
)

// ExportJSON serializes the statement's counted space with the current
// overlay's cost annotations (cards and local costs live in the cost
// overlay, not in the shared memo).
func (p *Prepared) ExportJSON() ([]byte, error) {
	c := p.Overlay.Costing
	return p.Space.ExportJSONAnnotated(
		c.CardOf,
		func(e *memo.Expr) float64 {
			if e.ID < len(c.Tables.Locals) {
				return c.Tables.Locals[e.ID]
			}
			return 0
		},
	)
}

// Explain renders a plan as an EXPLAIN-style tree: one line per operator
// with the operator's paper-style name, its estimated output rows (a
// property of its group), the cost of the subtree rooted there, and the
// operator's own cost contribution. The cumulative cost of the root line
// equals PlanCost. Subtree costs come from one post-order pass (one
// Combine per operator, as in plan.Node.CostWith), and the lines are
// built by the append formatters.
func (p *Prepared) Explain(n *plan.Node) (string, error) {
	x := explainer{m: p.Opt.Model}
	if _, err := x.cost(n); err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.Grow(128 * len(x.subtree))
	if err := x.render(&sb, n, 0); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// explainer holds Explain's per-plan state: every subtree's cost in
// preorder, the child-cost stack that computes them, and the line
// buffer.
type explainer struct {
	m       *cost.Model
	subtree []float64
	stack   []float64
	line    []byte
	next    int // preorder index of the next line to render
}

// cost fills x.subtree in one post-order pass and returns n's cost.
func (x *explainer) cost(n *plan.Node) (float64, error) {
	at := len(x.subtree)
	x.subtree = append(x.subtree, 0)
	base := len(x.stack)
	for _, c := range n.Children {
		cc, err := x.cost(c)
		if err != nil {
			return 0, err
		}
		x.stack = append(x.stack, cc)
	}
	total, err := x.m.Combine(n.Expr, x.stack[base:])
	x.stack = x.stack[:base]
	x.subtree[at] = total
	return total, err
}

// render writes n's line and its children's, in preorder. The line
// layout is "%s%-6s %-32s rows=%-10.0f cost=%-12.2f self=%.2f" with an
// optional " delivers=%s".
func (x *explainer) render(sb *strings.Builder, n *plan.Node, depth int) error {
	local, err := x.m.Local(n.Expr)
	if err != nil {
		return err
	}
	b := x.line[:0]
	for i := 0; i < depth; i++ {
		b = append(b, "  "...)
	}
	at := len(b)
	b = padTo(n.Expr.AppendName(b), at, 6)
	b = append(b, ' ')
	at = len(b)
	b = padTo(n.Expr.AppendDescribe(b), at, 32)
	b = append(b, " rows="...)
	at = len(b)
	b = padTo(strconv.AppendFloat(b, x.m.CardOf(n.Expr.Group), 'f', 0, 64), at, 10)
	b = append(b, " cost="...)
	at = len(b)
	b = padTo(strconv.AppendFloat(b, x.subtree[x.next], 'f', 2, 64), at, 12)
	b = append(b, " self="...)
	b = strconv.AppendFloat(b, local, 'f', 2, 64)
	if !n.Expr.Delivered.IsNone() {
		b = append(b, " delivers="...)
		b = n.Expr.Delivered.AppendTo(b)
	}
	b = append(b, '\n')
	sb.Write(b)
	x.line = b
	x.next++
	for _, c := range n.Children {
		if err := x.render(sb, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// padTo left-aligns the field b[start:] in width runes, as fmt's %-Ns
// and %-N.Pf do.
func padTo(b []byte, start, width int) []byte {
	for n := utf8.RuneCount(b[start:]); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}
