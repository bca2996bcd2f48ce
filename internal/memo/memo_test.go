package memo

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/data"
)

func testQuery() *algebra.Query {
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name:    "t",
		Columns: []catalog.Column{{Name: "a", Kind: data.KindInt}},
	})
	q := algebra.NewQuery()
	tbl, _ := cat.Table("t")
	rel := &algebra.BaseRel{Idx: 0, Name: "t", Table: tbl}
	rel.Cols = []algebra.Column{q.NewBaseColumn("a", data.KindInt, 0, 0)}
	q.Rels = append(q.Rels, rel)
	q.AllRels = algebra.SetOf(0)
	return q
}

func TestGroupAndExprNumbering(t *testing.T) {
	q := testQuery()
	m := New(q)
	g1 := m.NewGroup(GroupScan, algebra.SetOf(0))
	if g1.ID != 1 {
		t.Errorf("first group ID = %d, want 1", g1.ID)
	}
	e1 := m.AddExpr(g1, Expr{Op: LogicalGet, Scan: &ScanSpec{Rel: q.Rels[0]}})
	e2 := m.AddExpr(g1, Expr{Op: TableScan, Scan: &ScanSpec{Rel: q.Rels[0]}})
	if e1.Name() != "1.1" || e2.Name() != "1.2" {
		t.Errorf("names = %s, %s; want 1.1, 1.2", e1.Name(), e2.Name())
	}
	if e1.ID >= e2.ID {
		t.Error("global IDs not increasing")
	}
}

// TestDedup has one row per field of the dedup key: a differing field
// makes a new operator, and equal content held in fresh slices, specs
// or backing arrays dedups.
func TestDedup(t *testing.T) {
	q := testQuery()
	m := New(q)
	c1 := m.NewGroup(GroupScan, algebra.SetOf(0))
	c2 := m.NewGroup(GroupScan, algebra.SetOf(0))
	rel0, rel1 := q.Rels[0], &algebra.BaseRel{Idx: 1, Name: "u"}
	ix, ixSameName, iy := &catalog.Index{Name: "ix"}, &catalog.Index{Name: "ix"}, &catalog.Index{Name: "iy"}
	join := &JoinSpec{}
	asc := algebra.Ordering{{Col: 1}, {Col: 2}}
	desc := algebra.Ordering{{Col: 1}, {Col: 2, Desc: true}}
	scan := func(rel *algebra.BaseRel, idx *catalog.Index) Expr {
		return Expr{Op: IndexScan, Scan: &ScanSpec{Rel: rel, Index: idx}}
	}
	hash := func(children ...*Group) Expr { return Expr{Op: HashJoin, Children: children, Join: join} }
	lookup := func(rel *algebra.BaseRel, idx *catalog.Index, keys int) Expr {
		return Expr{Op: IndexNLJoin, Children: []*Group{c1}, Join: join,
			Lookup: &LookupSpec{Rel: rel, Index: idx, OuterKeys: make([]algebra.Column, keys)}}
	}
	sorted := func(o algebra.Ordering) Expr { return Expr{Op: Sort, Children: []*Group{c1}, SortOrder: o} }
	delivers := func(o algebra.Ordering) Expr { return Expr{Op: TableScan, Scan: &ScanSpec{Rel: rel0}, Delivered: o} }
	requires := func(r ...algebra.Ordering) Expr {
		return Expr{Op: MergeJoin, Children: []*Group{c1, c2}, Join: join, Required: r}
	}
	cases := []struct {
		name string
		x, y Expr
		same bool
	}{
		{"op", Expr{Op: TableScan, Scan: &ScanSpec{Rel: rel0}}, Expr{Op: IndexScan, Scan: &ScanSpec{Rel: rel0}}, false},
		{"fresh scan spec", Expr{Op: TableScan, Scan: &ScanSpec{Rel: rel0}}, Expr{Op: TableScan, Scan: &ScanSpec{Rel: rel0}}, true},
		{"children order", hash(c1, c2), hash(c2, c1), false},
		{"children count", hash(c1), hash(c1, c1), false},
		{"children fresh slice", hash(c1, c2), hash(c1, c2), true},
		{"scan rel", scan(rel0, nil), scan(rel1, nil), false},
		{"scan index vs none", scan(rel0, nil), scan(rel0, ix), false},
		{"scan index name", scan(rel0, ix), scan(rel0, iy), false},
		{"scan index same name", scan(rel0, ix), scan(rel0, ixSameName), true},
		{"scan vs none", Expr{Op: TableScan}, Expr{Op: TableScan, Scan: &ScanSpec{Rel: rel0}}, false},
		{"join identity", Expr{Op: HashJoin, Join: &JoinSpec{}}, Expr{Op: HashJoin, Join: &JoinSpec{}}, false},
		{"join shared", Expr{Op: HashJoin, Join: join}, Expr{Op: HashJoin, Join: join}, true},
		{"lookup rel", lookup(rel0, ix, 1), lookup(rel1, ix, 1), false},
		{"lookup index", lookup(rel0, ix, 1), lookup(rel0, iy, 1), false},
		{"lookup outer keys", lookup(rel0, ix, 1), lookup(rel0, ix, 2), false},
		{"lookup fresh spec", lookup(rel0, ix, 2), lookup(rel0, ixSameName, 2), true},
		{"sort order", sorted(asc), sorted(desc), false},
		{"sort order fresh backing", sorted(asc), sorted(asc.Clone()), true},
		{"delivered vs none", delivers(asc), delivers(nil), false},
		{"delivered direction", delivers(asc), delivers(desc), false},
		{"delivered prefix", delivers(asc), delivers(asc[:1]), false},
		{"delivered fresh backing", delivers(asc), delivers(asc.Clone()), true},
		{"delivered nil vs empty", delivers(nil), delivers(algebra.Ordering{}), true},
		{"required", requires(asc), requires(desc), false},
		{"required length", requires(asc), requires(asc, nil), false},
		{"required nil vs empty", requires(), Expr{Op: MergeJoin, Children: []*Group{c1, c2}, Join: join, Required: []algebra.Ordering{}}, true},
		{"required nil vs [nil]", requires(), requires(nil), false},
		{"required [nil] vs [empty]", requires(nil), requires(algebra.Ordering{}), true},
		{"required fresh backing", requires(asc, desc), requires(asc.Clone(), desc.Clone()), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := m.NewGroup(GroupJoin, algebra.SetOf(0))
			x, y := m.AddExpr(g, tc.x), m.AddExpr(g, tc.y)
			if (x == y) != tc.same {
				t.Errorf("deduplicated = %v, want %v", x == y, tc.same)
			}
			want := 2
			if tc.same {
				want = 1
			}
			if len(g.Exprs) != want {
				t.Errorf("group holds %d operators, want %d", len(g.Exprs), want)
			}
			if m.AddExpr(g, tc.x) != x || m.AddExpr(g, tc.y) != y {
				t.Error("re-adding an operator did not find it")
			}
			// The hash alone separates most rows; check the field
			// comparison that must also hold under a collision.
			if got := sameExpr(&tc.x, &tc.y); got != tc.same {
				t.Errorf("sameExpr = %v, want %v", got, tc.same)
			}
			if tc.same && exprHash(&tc.x) != exprHash(&tc.y) {
				t.Error("duplicates hash differently")
			}
		})
	}
}

// TestDedupHashCollision plants a different operator under a new
// operator's hash: AddExpr must not trust the hash, and must find the
// new operator again past the planted one.
func TestDedupHashCollision(t *testing.T) {
	q := testQuery()
	m := New(q)
	g := m.NewGroup(GroupScan, algebra.SetOf(0))
	decoy := m.AddExpr(g, Expr{Op: LogicalGet, Scan: &ScanSpec{Rel: q.Rels[0]}})
	e := Expr{Op: TableScan, Scan: &ScanSpec{Rel: q.Rels[0]}}
	g.dedup[exprHash(&e)] = decoy
	x := m.AddExpr(g, e)
	if x == decoy {
		t.Fatal("a hash collision merged two distinct operators")
	}
	if y := m.AddExpr(g, e); y != x {
		t.Error("an operator displaced by a collision was not found again")
	}
	if len(g.Exprs) != 2 {
		t.Errorf("group holds %d operators, want 2", len(g.Exprs))
	}
}

// TestGraphSealsMemo checks that deriving the plan graph releases the
// dedup index and that a later AddExpr fails loudly.
func TestGraphSealsMemo(t *testing.T) {
	q := testQuery()
	m := New(q)
	g := m.NewGroup(GroupRoot, algebra.SetOf(0))
	e := Expr{Op: TableScan, Scan: &ScanSpec{Rel: q.Rels[0]}}
	m.AddExpr(g, e)
	if len(g.dedup) == 0 {
		t.Fatal("dedup index empty before the memo was sealed")
	}
	m.Graph()
	if g.dedup != nil {
		t.Error("Graph left the dedup index reachable")
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "sealed") {
			t.Errorf("AddExpr after Graph: recovered %v, want a sealed-memo panic", r)
		}
	}()
	m.AddExpr(g, e)
}

func TestPhysicalListExcludesLogical(t *testing.T) {
	q := testQuery()
	m := New(q)
	g := m.NewGroup(GroupScan, algebra.SetOf(0))
	m.AddExpr(g, Expr{Op: LogicalGet, Scan: &ScanSpec{Rel: q.Rels[0]}})
	m.AddExpr(g, Expr{Op: TableScan, Scan: &ScanSpec{Rel: q.Rels[0]}})
	sort := m.AddExpr(g, Expr{Op: Sort, Children: []*Group{g}, SortOrder: algebra.Ordering{{Col: 0}}, Delivered: algebra.Ordering{{Col: 0}}})
	if len(g.Physical) != 2 {
		t.Errorf("Physical = %d, want 2", len(g.Physical))
	}
	ne := g.NonEnforcers()
	if len(ne) != 1 || ne[0].Op != TableScan {
		t.Errorf("NonEnforcers = %v", ne)
	}
	if !sort.IsEnforcer() {
		t.Error("Sort not an enforcer")
	}
}

func TestRegisterInterestingOrderDedups(t *testing.T) {
	q := testQuery()
	m := New(q)
	g := m.NewGroup(GroupScan, algebra.SetOf(0))
	o := algebra.Ordering{{Col: 1}}
	if !g.RegisterInterestingOrder(o) {
		t.Error("first registration should be new")
	}
	if g.RegisterInterestingOrder(o.Clone()) {
		t.Error("duplicate registration should be rejected")
	}
	if g.RegisterInterestingOrder(nil) {
		t.Error("empty ordering registered")
	}
	if len(g.InterestingOrders) != 1 {
		t.Errorf("InterestingOrders = %d", len(g.InterestingOrders))
	}
}

func TestOpKindPredicates(t *testing.T) {
	logical := []OpKind{LogicalGet, LogicalJoin, LogicalAgg, LogicalResult}
	for _, k := range logical {
		if !k.Logical() || k.Physical() {
			t.Errorf("%s should be logical", k)
		}
	}
	physical := []OpKind{TableScan, IndexScan, HashJoin, MergeJoin, NestedLoopJoin, HashAgg, StreamAgg, Sort, Result}
	for _, k := range physical {
		if k.Logical() || !k.Physical() {
			t.Errorf("%s should be physical", k)
		}
	}
	if !Sort.Enforcer() || TableScan.Enforcer() {
		t.Error("enforcer predicate wrong")
	}
}

func TestJoinSpecKeysOrientation(t *testing.T) {
	q := testQuery()
	colL := algebra.Column{ID: 10, Rel: 0}
	colR := algebra.Column{ID: 20, Rel: 1}
	spec := &JoinSpec{Equi: []*algebra.PredInfo{{LCol: colL, RCol: colR, IsEqui: true}}}
	l, r := spec.Keys(algebra.SetOf(0))
	if l[0].ID != 10 || r[0].ID != 20 {
		t.Errorf("Keys(left={0}) = %v, %v", l, r)
	}
	// Flip: when relation 1 is the left side the keys swap.
	l, r = spec.Keys(algebra.SetOf(1))
	if l[0].ID != 20 || r[0].ID != 10 {
		t.Errorf("Keys(left={1}) = %v, %v", l, r)
	}
	_ = q
}

func TestStatsAndDump(t *testing.T) {
	q := testQuery()
	m := New(q)
	g := m.NewGroup(GroupScan, algebra.SetOf(0))
	m.AddExpr(g, Expr{Op: LogicalGet, Scan: &ScanSpec{Rel: q.Rels[0]}})
	m.AddExpr(g, Expr{Op: TableScan, Scan: &ScanSpec{Rel: q.Rels[0]}})
	m.AddExpr(g, Expr{Op: Sort, Children: []*Group{g}, SortOrder: algebra.Ordering{{Col: 0}}, Delivered: algebra.Ordering{{Col: 0}}})
	st := m.Stats()
	if st.Groups != 1 || st.LogicalOps != 1 || st.PhysicalOps != 2 || st.EnforcerOps != 1 {
		t.Errorf("Stats = %+v", st)
	}
	dump := m.Dump()
	for _, want := range []string{"Group 1", "1.1", "TableScan(t)", "Sort(#0)"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump missing %q:\n%s", want, dump)
		}
	}
}
