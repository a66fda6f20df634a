package core

// This file reproduces the paper's worked example end to end:
//   - Example 6.1's database D0,
//   - Figure 3(a): the data structure for D0, with every item weight,
//   - Figure 3(b): the structure after insert E(b,p),
//   - Table 1: the exact enumeration sequence of the 23 result tuples.

import (
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
)

// Constants of Example 6.1, encoded as the paper's dom = N_{>=1}.
const (
	cA = int64(iota + 1)
	cB
	cC
	cD
	cE
	cF
	cG
	cH
	cP
)

var ex61Names = map[Value]string{
	cA: "a", cB: "b", cC: "c", cD: "d", cE: "e", cF: "f", cG: "g", cH: "h", cP: "p",
}

// qEx61 is ϕ(x,y,z,y',z') = Rxyz ∧ Rxyz' ∧ Exy ∧ Exy' ∧ Sxyz.
// Head order follows the paper: (x, y, z, y', z').
var qEx61 = cq.MustParse("Q(x,y,z,yp,zp) :- R(x,y,z), R(x,y,zp), E(x,y), E(x,yp), S(x,y,z)")

// ex61DB builds D0 from Example 6.1. Tuples are returned in sorted order
// so that the tail-appending fit lists reproduce the layout drawn in
// Figure 3 and the enumeration order of Table 1.
func ex61DB(t *testing.T) *dyndb.Database {
	t.Helper()
	db := dyndb.New()
	eD := [][2]Value{{cA, cE}, {cA, cF}, {cB, cD}, {cB, cG}, {cB, cH}}
	sD := [][3]Value{{cA, cE, cA}, {cA, cE, cB}, {cA, cF, cC}, {cB, cG, cB}, {cB, cP, cA}}
	rD := append(append([][3]Value{}, sD...),
		[3]Value{cA, cE, cC}, [3]Value{cB, cG, cA}, [3]Value{cB, cG, cC},
		[3]Value{cB, cP, cB}, [3]Value{cB, cP, cC})
	for _, e := range eD {
		if _, err := db.Insert("E", e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sD {
		if _, err := db.Insert("S", s[0], s[1], s[2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rD {
		if _, err := db.Insert("R", r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func ex61Engine(t *testing.T) *harness {
	t.Helper()
	e, err := newHarness(qEx61, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Load in the deterministic sorted order of Database.Updates (E before
	// R before S, tuples sorted), which matches the figure's list layout.
	if err := e.Load(ex61DB(t)); err != nil {
		t.Fatal(err)
	}
	return e
}

// weightOf returns C^i for the item [node(var), pathVals...] in the (only)
// component, and whether the item exists.
func weightOf(e *harness, varName string, pathVals ...Value) (uint64, bool) {
	c := e.comps[0]
	for ni := range c.nodes {
		if c.nodes[ni].name == varName {
			sh := &c.shards[e.shardOf(pathVals[0])]
			r, ok := sh.index[ni].Get(pathVals)
			if !ok {
				return 0, false
			}
			return sh.arenas[ni].rec(r)[recWeight], true
		}
	}
	return 0, false
}

// TestFigure3a checks every weight displayed in Figure 3(a) plus the
// seven unfit items the caption lists as omitted.
func TestFigure3a(t *testing.T) {
	e := ex61Engine(t)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := e.Count(); got != 23 {
		t.Fatalf("C_start = %d, want 23", got)
	}
	wantWeights := []struct {
		v    string
		path []Value
		w    uint64
	}{
		{"x", []Value{cA}, 14},
		{"x", []Value{cB}, 9},
		{"y", []Value{cA, cE}, 6},
		{"y", []Value{cA, cF}, 1},
		{"yp", []Value{cA, cE}, 1},
		{"yp", []Value{cA, cF}, 1},
		{"y", []Value{cB, cG}, 3},
		{"y", []Value{cB, cP}, 0}, // the displayed unfit item [y, b/x, p]
		{"yp", []Value{cB, cD}, 1},
		{"yp", []Value{cB, cG}, 1},
		{"yp", []Value{cB, cH}, 1},
		{"z", []Value{cA, cE, cA}, 1},
		{"z", []Value{cA, cE, cB}, 1},
		{"zp", []Value{cA, cE, cA}, 1},
		{"zp", []Value{cA, cE, cB}, 1},
		{"zp", []Value{cA, cE, cC}, 1},
		{"z", []Value{cA, cF, cC}, 1},
		{"zp", []Value{cA, cF, cC}, 1},
		{"z", []Value{cB, cG, cB}, 1},
		{"zp", []Value{cB, cG, cA}, 1},
		{"zp", []Value{cB, cG, cB}, 1},
		{"zp", []Value{cB, cG, cC}, 1},
		{"z", []Value{cB, cP, cA}, 1},
		{"zp", []Value{cB, cP, cA}, 1},
		{"zp", []Value{cB, cP, cB}, 1},
		{"zp", []Value{cB, cP, cC}, 1},
	}
	for _, w := range wantWeights {
		got, ok := weightOf(e, w.v, w.path...)
		if !ok {
			t.Errorf("item [%s, %v] missing", w.v, w.path)
			continue
		}
		if got != w.w {
			t.Errorf("C[%s, %v] = %d, want %d", w.v, w.path, got, w.w)
		}
	}
	// The seven unfit items enumerated in the caption of Figure 3(a).
	unfit := []struct {
		v    string
		path []Value
	}{
		{"y", []Value{cB, cD}},
		{"y", []Value{cB, cH}},
		{"z", []Value{cA, cE, cC}},
		{"z", []Value{cB, cG, cA}},
		{"z", []Value{cB, cG, cC}},
		{"z", []Value{cB, cP, cB}},
		{"z", []Value{cB, cP, cC}},
	}
	for _, u := range unfit {
		w, ok := weightOf(e, u.v, u.path...)
		if !ok {
			t.Errorf("unfit item [%s, %v] should be present", u.v, u.path)
			continue
		}
		if w != 0 {
			t.Errorf("item [%s, %v] has weight %d, want 0 (unfit)", u.v, u.path, w)
		}
	}
	// Non-items: assignments never supported by any atom.
	if _, ok := weightOf(e, "z", cA, cE, cD); ok {
		t.Error("item [z, (a,e,d)] should not exist")
	}
	if _, ok := weightOf(e, "x", cC); ok {
		t.Error("item [x, c] should not exist")
	}
}

// TestFigure3b checks the update step shown in Figure 3(b): inserting
// E(b,p) raises C_start from 23 to 38, makes [y, b/x, p] fit with weight
// 3, creates the fit item [y', b/x, p], and lifts the root item b to 24.
func TestFigure3b(t *testing.T) {
	e := ex61Engine(t)
	changed, err := e.Insert("E", cB, cP)
	if err != nil || !changed {
		t.Fatalf("insert E(b,p): %v %v", changed, err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := e.Count(); got != 38 {
		t.Fatalf("C_start = %d, want 38", got)
	}
	checks := []struct {
		v    string
		path []Value
		w    uint64
	}{
		{"x", []Value{cA}, 14},
		{"x", []Value{cB}, 24},
		{"y", []Value{cB, cP}, 3},
		{"yp", []Value{cB, cP}, 1},
	}
	for _, c := range checks {
		got, ok := weightOf(e, c.v, c.path...)
		if !ok || got != c.w {
			t.Errorf("C[%s, %v] = %d (present=%v), want %d", c.v, c.path, got, ok, c.w)
		}
	}
	// Deleting E(b,p) again must restore Figure 3(a) exactly.
	if _, err := e.Delete("E", cB, cP); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := e.Count(); got != 23 {
		t.Fatalf("C_start after undo = %d, want 23", got)
	}
	if w, ok := weightOf(e, "y", cB, cP); !ok || w != 0 {
		t.Errorf("[y, b/x, p] after undo: weight %d present %v, want 0 true", w, ok)
	}
}

// table1Want is the exact enumeration sequence of Table 1, as tuples
// (x, y, z, y', z') — the head order of ϕ — read off the table's columns.
var table1Want = [][5]string{
	{"a", "e", "a", "e", "a"}, {"a", "e", "a", "f", "a"},
	{"a", "e", "a", "e", "b"}, {"a", "e", "a", "f", "b"},
	{"a", "e", "a", "e", "c"}, {"a", "e", "a", "f", "c"},
	{"a", "e", "b", "e", "a"}, {"a", "e", "b", "f", "a"},
	{"a", "e", "b", "e", "b"}, {"a", "e", "b", "f", "b"},
	{"a", "e", "b", "e", "c"}, {"a", "e", "b", "f", "c"},
	{"a", "f", "c", "e", "c"}, {"a", "f", "c", "f", "c"},
	{"b", "g", "b", "d", "a"}, {"b", "g", "b", "g", "a"}, {"b", "g", "b", "h", "a"},
	{"b", "g", "b", "d", "b"}, {"b", "g", "b", "g", "b"}, {"b", "g", "b", "h", "b"},
	{"b", "g", "b", "d", "c"}, {"b", "g", "b", "g", "c"}, {"b", "g", "b", "h", "c"},
}

// TestTable1 reproduces the paper's Table 1: same 23 tuples, same order.
// The paper lists tuples by the document order x,y,z,z',y' with the fixed
// child orders y<y', z<z'; our builder derives exactly that tree (see
// qtree.TestFigure2), so the sequences must agree tuple for tuple.
func TestTable1(t *testing.T) {
	e := ex61Engine(t)
	var got [][5]string
	e.Enumerate(func(tup []Value) bool {
		var row [5]string
		for i, v := range tup {
			row[i] = ex61Names[v]
		}
		got = append(got, row)
		return true
	})
	if len(got) != len(table1Want) {
		t.Fatalf("enumerated %d tuples, want %d:\n%v", len(got), len(table1Want), got)
	}
	for i := range table1Want {
		if got[i] != table1Want[i] {
			t.Errorf("tuple %d = %v, want %v", i, got[i], table1Want[i])
		}
	}
}

// TestTable1Iterator drives the same enumeration through the pull
// iterator and checks the no-duplicates guarantee.
func TestTable1Iterator(t *testing.T) {
	e := ex61Engine(t)
	it := e.Iterator()
	seen := map[[5]string]bool{}
	n := 0
	for tup, ok := it.Next(); ok; tup, ok = it.Next() {
		var row [5]string
		for i, v := range tup {
			row[i] = ex61Names[v]
		}
		if seen[row] {
			t.Fatalf("duplicate tuple %v", row)
		}
		seen[row] = true
		n++
	}
	if n != 23 {
		t.Fatalf("iterator yielded %d tuples, want 23", n)
	}
	// Exhausted iterator keeps returning EOE.
	if _, ok := it.Next(); ok {
		t.Error("Next after EOE returned a tuple")
	}
}
