package algebra

import (
	"testing"
	"testing/quick"
)

func ord(cols ...int32) Ordering {
	o := make(Ordering, len(cols))
	for i, c := range cols {
		o[i] = OrderCol{Col: ColID(c)}
	}
	return o
}

func TestSatisfiesPrefixSemantics(t *testing.T) {
	cases := []struct {
		delivered, required Ordering
		want                bool
	}{
		{ord(1, 2, 3), ord(1, 2), true},
		{ord(1, 2), ord(1, 2, 3), false},
		{ord(1, 2), ord(1, 2), true},
		{ord(1, 2), ord(2, 1), false},
		{ord(1), nil, true},
		{nil, nil, true},
		{nil, ord(1), false},
	}
	for _, c := range cases {
		if got := c.delivered.Satisfies(c.required); got != c.want {
			t.Errorf("%s satisfies %s = %v, want %v", c.delivered, c.required, got, c.want)
		}
	}
	// Direction matters.
	asc := Ordering{{Col: 1}}
	desc := Ordering{{Col: 1, Desc: true}}
	if asc.Satisfies(desc) || desc.Satisfies(asc) {
		t.Error("ASC and DESC must not satisfy each other")
	}
}

func TestSatisfiesReflexiveTransitiveProperty(t *testing.T) {
	gen := func(seed uint32) Ordering {
		n := int(seed % 4)
		o := make(Ordering, n)
		for i := range o {
			o[i] = OrderCol{Col: ColID((seed >> (4 * uint(i))) % 5), Desc: (seed>>(4*uint(i)+2))&1 == 1}
		}
		return o
	}
	f := func(a, b, c uint32) bool {
		x, y, z := gen(a), gen(b), gen(c)
		if !x.Satisfies(x) {
			return false
		}
		// Transitivity: x ⊒ y and y ⊒ z implies x ⊒ z.
		if x.Satisfies(y) && y.Satisfies(z) && !x.Satisfies(z) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderingCloneIndependent(t *testing.T) {
	a := ord(1, 2)
	b := a.Clone()
	b[0].Col = 99
	if a[0].Col != 1 {
		t.Error("Clone aliases original")
	}
	if Ordering(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

func TestOrderingEqual(t *testing.T) {
	if !ord(1, 2).Equal(ord(1, 2)) {
		t.Error("equal orderings unequal")
	}
	if ord(1).Equal(ord(1, 2)) || ord(1).Equal(ord(2)) {
		t.Error("unequal orderings equal")
	}
}
