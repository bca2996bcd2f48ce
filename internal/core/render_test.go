package core_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/memo"
	"repro/internal/plan"
)

// The digests below hash the rendered text of the optimal plan plus
// renderDraws seeded plans per TPC-H space (sf=0.001, seed 42), drawn
// from a renderSeed sampler on the space's production tier. They were
// recorded with the fmt-based renderers: Node.String and Explain must
// keep every byte when the rendering path changes.
const (
	renderSeed  = 5
	renderDraws = 64
)

var renderDigests = map[string]string{
	"Q3":       "485a614b38dcf88eae992757a7190b39c14eb39f956f8d7194bc8c891a7d1d74",
	"Q5":       "bd3a252f512cda4a4f6e9bdced066ca56ce2b095108b04a0e3217d6df291d268",
	"Q6":       "6f4dd003ff802f06ff9472f57f7f6bb548ecda1cac239e9140305ed71576e5bf",
	"Q7":       "3a2f805f551d4c64fadaec39485d972a44df5cc3a19a40c3164c746f4a4babcf",
	"Q8":       "a21b4abeec352bd0980bcc69a8e49ba9a7a5c1f8dd265cd1b30f28cc2ef7cc2a",
	"Q9":       "9d268be8e1518dd9efaebb377d29cc1e812455699323b0012341100cedde3cd1",
	"Q10":      "1d3792b4dd8addb6c6c9ccd4865edf56c3c1f3f94e50ea29a086d53bf6f0068c",
	"Q8+cross": "23a583fd7e7d2fb336bb397fad2c18d138874d4d98cea23c8afdf763ea9c0ddf",
}

var explainDigests = map[string]string{
	"Q3":       "61fc6a4a763f7c804257705fee70c98a91c43ff6cb9f6b4e793cf15197235af8",
	"Q5":       "d190f0432867ab58212eea0b8c5cfb5a28e83f8b2a7d05c9a394c41d95ff88c0",
	"Q6":       "28f70dde240238f8966efbff7fa24b7a2995ce521f74a79464c2fc266858a252",
	"Q7":       "17d80be8e9c422ead1497fff91fdbea299e3705c4641b29ec38f3d9b1e5abaf8",
	"Q8":       "f4cc7bf0bc35bd065cba9df222120af7e7a42b0d1672328362b8a79b481b59a3",
	"Q9":       "800c679710bb1321d863484dab19fadd52721583f756b0cb43d47d25fd6f1bd6",
	"Q10":      "23a48d7001deb6676ccb7c79f7f5c5e8d8dcd0c799cdaa86b9095be2b1d56235",
	"Q8+cross": "2bc9eee69e93222ab50eed409e862880843074d568d7244f5ea1f244317771a7",
}

// renderedDigest hashes render(optimal) and render(plan) for every
// seeded draw of the space's sampler.
func renderedDigest(t *testing.T, p *engine.Prepared, render func(h hash.Hash, pl *plan.Node) error) string {
	t.Helper()
	h := sha256.New()
	if err := render(h, p.OptimalPlan()); err != nil {
		t.Fatal(err)
	}
	smp, err := p.Sampler(renderSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < renderDraws; i++ {
		_, pl, err := smp.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := render(h, pl); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func pinnedPrepared(t *testing.T, name string) *engine.Prepared {
	q, cross := name, false
	if name == "Q8+cross" {
		q, cross = "Q8", true
	}
	return tpchPrepared(t, q, cross)
}

func TestRenderDigestsPinned(t *testing.T) {
	for name, want := range renderDigests {
		t.Run(name, func(t *testing.T) {
			got := renderedDigest(t, pinnedPrepared(t, name), func(h hash.Hash, pl *plan.Node) error {
				h.Write([]byte(pl.String()))
				return nil
			})
			if got != want {
				t.Errorf("render digest %s, want %s", got, want)
			}
		})
	}
}

func TestExplainDigestsPinned(t *testing.T) {
	for name, want := range explainDigests {
		t.Run(name, func(t *testing.T) {
			p := pinnedPrepared(t, name)
			got := renderedDigest(t, p, func(h hash.Hash, pl *plan.Node) error {
				text, err := p.Explain(pl)
				h.Write([]byte(text))
				return err
			})
			if got != want {
				t.Errorf("explain digest %s, want %s", got, want)
			}
		})
	}
}

// fmtRender is the fmt-based tree renderer the append formatters
// replaced, kept as the reference for TestRenderMatchesFmtReference and
// the /ref row of BenchmarkRender.
func fmtRender(n *plan.Node) string {
	var sb strings.Builder
	fmtRenderNode(&sb, n, 0)
	return sb.String()
}

func fmtRenderNode(sb *strings.Builder, n *plan.Node, depth int) {
	e := n.Expr
	sb.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(sb, "%s %s", fmt.Sprintf("%d.%d", e.Group.ID, e.Local), fmtDescribe(e))
	if !e.Delivered.IsNone() {
		fmt.Fprintf(sb, " delivers=%s", fmtOrdering(e.Delivered))
	}
	sb.WriteByte('\n')
	for _, c := range n.Children {
		fmtRenderNode(sb, c, depth+1)
	}
}

func fmtDescribe(e *memo.Expr) string {
	var sb strings.Builder
	sb.WriteString(e.Op.String())
	switch {
	case e.Scan != nil && e.Scan.Index != nil:
		fmt.Fprintf(&sb, "(%s.%s)", e.Scan.Rel.Name, e.Scan.Index.Name)
	case e.Scan != nil:
		fmt.Fprintf(&sb, "(%s)", e.Scan.Rel.Name)
	case e.Op == memo.Sort:
		sb.WriteString(fmtOrdering(e.SortOrder))
	case e.Op == memo.IndexNLJoin && e.Lookup != nil:
		fmt.Fprintf(&sb, "(lookup %s.%s)", e.Lookup.Rel.Name, e.Lookup.Index.Name)
	case e.Op == memo.MergeJoin || e.Op == memo.HashJoin || e.Op == memo.NestedLoopJoin || e.Op == memo.LogicalJoin:
		if e.Join != nil {
			fmt.Fprintf(&sb, "[%d preds]", len(e.Join.Equi)+len(e.Join.Residual))
		}
	}
	return sb.String()
}

func fmtOrdering(o algebra.Ordering) string {
	if len(o) == 0 {
		return "(any)"
	}
	parts := make([]string, len(o))
	for i, c := range o {
		if c.Desc {
			parts[i] = fmt.Sprintf("#%d DESC", c.Col)
		} else {
			parts[i] = fmt.Sprintf("#%d", c.Col)
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// TestRenderMatchesFmtReference renders 500 seeded plans per TPC-H
// space with both renderers, and every operator of every memo through
// Name and Describe.
func TestRenderMatchesFmtReference(t *testing.T) {
	for name := range renderDigests {
		t.Run(name, func(t *testing.T) {
			p := pinnedPrepared(t, name)
			for _, g := range p.Space.Memo.Groups {
				for _, e := range g.Exprs {
					if got, want := e.Name(), fmt.Sprintf("%d.%d", e.Group.ID, e.Local); got != want {
						t.Fatalf("Name %q, want %q", got, want)
					}
					if got, want := e.Describe(), fmtDescribe(e); got != want {
						t.Fatalf("%s: Describe %q, want %q", e.Name(), got, want)
					}
				}
			}
			smp, err := p.Sampler(11)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				r, pl, err := smp.Next()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := pl.String(), fmtRender(pl); got != want {
					t.Fatalf("rank %s renders\n%s\nwant\n%s", r, got, want)
				}
			}
		})
	}
}

// TestOrderingStrings covers the ordering forms no TPC-H plan shows:
// descending keys and multi-key orders.
func TestOrderingStrings(t *testing.T) {
	for _, o := range []algebra.Ordering{
		nil, {}, {{Col: 3}}, {{Col: 3, Desc: true}}, {{Col: 12}, {Col: -4, Desc: true}, {Col: 0}},
	} {
		if got, want := o.String(), fmtOrdering(o); got != want {
			t.Errorf("Ordering %v renders %q, want %q", []algebra.OrderCol(o), got, want)
		}
	}
}
