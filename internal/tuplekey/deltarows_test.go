package tuplekey

import (
	"slices"
	"testing"
)

// TestDeltaRowsLend: Lend hands the rows back per side in the order they
// were added, nil for a side without any, counted rows at arity 0; the
// next Add overwrites what it lent, in the same arrays; and a side lent
// past keepRows rows leaves d without its arrays, the lent rows intact.
func TestDeltaRowsLend(t *testing.T) {
	var d DeltaRows
	d.Add(false, []int64{1, 2})
	d.Add(true, []int64{3, 4})
	d.Add(false, []int64{5, 6})
	added, removed := d.Lend(2)
	if !slices.EqualFunc(added, [][]int64{{1, 2}, {5, 6}}, slices.Equal) || !slices.EqualFunc(removed, [][]int64{{3, 4}}, slices.Equal) {
		t.Fatalf("lent +%v -%v", added, removed)
	}
	if cap(added[0]) != 2 {
		t.Fatalf("a lent row has capacity %d, want its length 2", cap(added[0]))
	}
	first := added[0]
	d.Add(false, []int64{7, 8})
	if added, removed := d.Lend(2); len(added) != 1 || removed != nil || &added[0][0] != &first[0] || first[0] != 7 {
		t.Fatalf("second lend +%v -%v, first row now %v: want the arrays reused", added, removed, first)
	}
	d.Add(true, nil)
	if added, removed := d.Lend(0); added != nil || len(removed) != 1 || len(removed[0]) != 0 {
		t.Fatalf("arity 0: +%v -%v, want one empty removed tuple", added, removed)
	}
	for i := range keepRows + 1 {
		d.Add(false, []int64{int64(i)})
	}
	added, _ = d.Lend(1)
	if d.flat[0] != nil || d.heads[0] != nil || len(added) != keepRows+1 || added[keepRows][0] != keepRows {
		t.Fatalf("after lending %d rows d keeps arrays of %d and %d", len(added), cap(d.flat[0]), cap(d.heads[0]))
	}
}
