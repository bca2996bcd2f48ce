package core_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/memo"
)

// TestPlanGraphSharesContexts checks that counting keeps one candidate
// list and one prefix row per distinct context rather than per operator
// slot. The expected figures count, straight from the memo, the
// distinct (child group, required ordering) pairs the operator slots
// draw from, enforcer inputs apart, plus the root context. The slot
// totals are what per-slot lists held before the plan graph.
func TestPlanGraphSharesContexts(t *testing.T) {
	cases := []struct {
		query            string
		cross            bool
		slots, slotCands int
		ctxs, ctxCands   int
	}{
		{"Q5", false, 956, 9124, 133, 1166},
		{"Q9", false, 867, 7663, 122, 1021},
		{"Q8", true, 35234, 777811, 2267, 38541},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/cross=%v", tc.query, tc.cross), func(t *testing.T) {
			p := tpchPrepared(t, tc.query, tc.cross)
			m := p.Space.Memo
			slots, slotCands, ctxs, ctxCands := distinctContexts(m)
			if slots != tc.slots || slotCands != tc.slotCands || ctxs != tc.ctxs || ctxCands != tc.ctxCands {
				t.Fatalf("memo: %d slots / %d candidates over %d contexts / %d candidates; want %d / %d over %d / %d",
					slots, slotCands, ctxs, ctxCands, tc.slots, tc.slotCands, tc.ctxs, tc.ctxCands)
			}
			lists, entries, rows := p.Space.ContextTables()
			if lists != tc.ctxs || entries != tc.ctxCands || rows != tc.ctxs {
				t.Errorf("space keeps %d lists / %d entries / %d prefix rows; want %d / %d / %d",
					lists, entries, rows, tc.ctxs, tc.ctxCands, tc.ctxs)
			}
			if g := m.Graph(); len(g.Ctxs) != tc.ctxs {
				t.Errorf("graph holds %d contexts, want %d", len(g.Ctxs), tc.ctxs)
			}
		})
	}
}

// distinctContexts counts operator slots and their candidates, and the
// distinct contexts those slots draw from plus the root context, using
// only the memo's ordering contracts.
func distinctContexts(m *memo.Memo) (slots, slotCands, ctxs, ctxCands int) {
	type key struct {
		group int
		order string // the ordering's String(), unique per ordering
		enf   bool
	}
	var none algebra.Ordering
	seen := map[key]int{{m.Root.ID, none.String(), false}: len(m.Root.Physical)}
	for _, g := range m.Groups {
		for _, e := range g.Physical {
			if e.IsEnforcer() {
				n := len(g.NonEnforcers())
				slots, slotCands = slots+1, slotCands+n
				seen[key{g.ID, none.String(), true}] = n
				continue
			}
			for i, cg := range e.Children {
				req := e.RequiredOf(i)
				n := 0
				for _, c := range cg.Physical {
					if c.Delivered.Satisfies(req) {
						n++
					}
				}
				slots, slotCands = slots+1, slotCands+n
				seen[key{cg.ID, req.String(), false}] = n
			}
		}
	}
	for _, n := range seen {
		ctxCands += n
	}
	return slots, slotCands, len(seen), ctxCands
}

// TestPlanGraphBuiltOnce checks that counting and every costing over a
// structure walk one plan graph instance.
func TestPlanGraphBuiltOnce(t *testing.T) {
	p := tpchPrepared(t, "Q5", false)
	g := p.Space.Graph()
	if g == nil || g != p.Shared.Struct.Memo.Graph() || g != p.Opt.Memo.Graph() {
		t.Fatal("core and opt hold different plan graphs for one structure")
	}
	params := p.Opt.Params
	params.CPUTuple *= 2
	c, err := p.Shared.Struct.Cost(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Memo.Graph() != g {
		t.Fatal("a re-cost derived a second plan graph")
	}
	s, err := core.Prepare(p.Space.Memo)
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph() != g {
		t.Fatal("a second count derived a second plan graph")
	}
}

// exportDigests are SHA-256 digests of ExportJSON for every TPC-H
// space at sf=0.001, seed 42, recorded before counting moved onto the
// plan graph: the export (counts, candidate lists, cost annotations)
// must not change with the data structure behind it.
var exportDigests = map[string]string{
	"Q3":       "2ea37ac29d7e883f8ecf401544c832e3e8a1e037c115614501034d4ae024c59c",
	"Q5":       "5391e63b532e607e5a3b09119e2377c2dc8d71a06cbc0af4c221bad5e29ec234",
	"Q6":       "9cc680ccd105ff0cf7b2d844e56a0583207df3dddecb17db7477bfcccb300c09",
	"Q7":       "2412291b296cefe2191b89bbe1d73e39549e9b1480d84d3e2b14c44dad36deb2",
	"Q8":       "dd0e6d655fa7e88b5039d5b09382e05e7b3bbb9121442f8cbcd4ad58e4cdaae6",
	"Q9":       "5a519e57860fc9137f12f37f2b3d7423de74f5b89323a6bab5f3a0c651dca03b",
	"Q10":      "4ac23ec8db5876a571626562edc461dfc47ad7f49f219ebb007e2bebc729e842",
	"Q8+cross": "372c08e389cad6bb3e1c464e186ad4b7b08ece56f7ad187015b9711bc6d10719",
}

func TestExportDigestsPinned(t *testing.T) {
	for name, want := range exportDigests {
		t.Run(name, func(t *testing.T) {
			q, cross := name, false
			if name == "Q8+cross" {
				q, cross = "Q8", true
			}
			blob, err := tpchPrepared(t, q, cross).ExportJSON()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want {
				t.Errorf("export digest %s, want %s", got, want)
			}
		})
	}
}
