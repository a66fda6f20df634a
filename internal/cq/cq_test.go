package cq

import (
	"strings"
	"testing"
)

// Queries from the paper, used across the test suite.
var (
	// ϕS-E-T, equation (2): hierarchical for Fink–Olteanu, not for
	// Koutris–Suciu, not q-hierarchical.
	qSET = MustParse("Q(x,y) :- S(x), E(x,y), T(y)")
	// ϕ'S-E-T, equation (3): Boolean version.
	qSETBool = MustParse("Q() :- S(x), E(x,y), T(y)")
	// ϕE-T, equation (4): hierarchical but not q-hierarchical.
	qET = MustParse("Q(x) :- E(x,y), T(y)")
	// The three q-hierarchical variants of ϕE-T named in Section 3.
	qETFreeY = MustParse("Q(y) :- E(x,y), T(y)")
	qETJoin  = MustParse("Q(x,y) :- E(x,y), T(y)")
	qETBool  = MustParse("Q() :- E(x,y), T(y)")
	// Section 3's hierarchical Boolean example
	// ∃x∃y∃z∃y'∃z' (Rxyz ∧ Rxyz' ∧ Exy ∧ Exy').
	qHier = MustParse("Q() :- R(x,y,z), R(x,y,zp), E(x,y), E(x,yp)")
	// Example 6.1.
	qEx61 = MustParse("Q(x,y,z,yp,zp) :- R(x,y,z), R(x,y,zp), E(x,y), E(x,yp), S(x,y,z)")
	// Figure 1 query ϕ(x1,x2,x3) = ∃x4∃x5 (Ex1x2 ∧ Rx4x1x2x1 ∧ Rx5x3x2x1).
	qFig1 = MustParse("Q(x1,x2,x3) :- E(x1,x2), R(x4,x1,x2,x1), R(x5,x3,x2,x1)")
	// Section 3's core example ϕ = ∃x∃y (Exx ∧ Exy ∧ Eyy) and its core.
	qLoops     = MustParse("Q() :- E(x,x), E(x,y), E(y,y)")
	qLoopsCore = MustParse("Q() :- E(x,x)")
	// Appendix A's ϕ1(x,y).
	qPhi1 = MustParse("Q(x,y) :- E(x,x), E(x,y), E(y,y)")
)

func TestParseBasic(t *testing.T) {
	q, err := Parse("Ans(x, y) :- R(x, y), S(y, z).")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "Ans" {
		t.Errorf("Name = %q", q.Name)
	}
	if got := strings.Join(q.Head, ","); got != "x,y" {
		t.Errorf("Head = %q", got)
	}
	if len(q.Atoms) != 2 || q.Atoms[0].String() != "R(x,y)" || q.Atoms[1].String() != "S(y,z)" {
		t.Errorf("Atoms = %v", q.Atoms)
	}
}

func TestParseBoolean(t *testing.T) {
	q := MustParse("Q() :- E(x,y)")
	if !q.IsBoolean() || q.Arity() != 0 {
		t.Errorf("Boolean query misparsed: %v", q)
	}
}

func TestParsePrimes(t *testing.T) {
	q := MustParse("Q(y') :- E(x,y'), T(y')")
	if q.Head[0] != "y'" {
		t.Errorf("primed variable misparsed: %q", q.Head[0])
	}
}

func TestParseWhitespaceAndNoDot(t *testing.T) {
	q, err := Parse("  Q ( x )  :-  R ( x , y )  ")
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "Q(x) :- R(x,y)." {
		t.Errorf("String() = %q", q.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Q(x)",
		"Q(x) :-",
		"Q(x) :- R(x,)",
		"Q(x) :- R(x) extra",
		"Q(x,x) :- R(x)",       // repeated head var
		"Q(z) :- R(x)",         // head var not in body
		"Q(x) :- R(x), R(x,y)", // inconsistent arity
		"Q(x) :- R()",          // empty atom
		"1Q(x) :- R(x)",        // bad identifier
		"Q(x) :- R(x),, S(x)",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, q := range []*Query{qSET, qSETBool, qET, qEx61, qFig1, qLoops} {
		r, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", q.String(), err)
		}
		if r.String() != q.String() {
			t.Errorf("round trip changed %q to %q", q.String(), r.String())
		}
	}
}

func TestVarsAndFreeVars(t *testing.T) {
	if got := strings.Join(qSET.Vars(), ","); got != "x,y" {
		t.Errorf("Vars = %q", got)
	}
	if got := strings.Join(qEx61.Vars(), ","); got != "x,y,z,yp,zp" {
		t.Errorf("Vars = %q", got)
	}
	if got := strings.Join(qET.QuantifiedVars(), ","); got != "y" {
		t.Errorf("QuantifiedVars = %q", got)
	}
	if qET.IsFree("y") || !qET.IsFree("x") {
		t.Error("IsFree wrong for qET")
	}
}

func TestIsSelfJoinFree(t *testing.T) {
	if !qSET.IsSelfJoinFree() {
		t.Error("qSET should be self-join free")
	}
	if qEx61.IsSelfJoinFree() {
		t.Error("qEx61 repeats R and E")
	}
	if qLoops.IsSelfJoinFree() {
		t.Error("qLoops repeats E")
	}
}

func TestSchema(t *testing.T) {
	s := qEx61.Schema()
	want := map[string]int{"R": 3, "E": 2, "S": 3}
	for r, a := range want {
		if s[r] != a {
			t.Errorf("Schema[%s] = %d, want %d", r, s[r], a)
		}
	}
}

// TestHierarchicalVariants checks the Section 3 discussion: ϕS-E-T is
// hierarchical w.r.t. Fink–Olteanu's notion and non-hierarchical w.r.t.
// Koutris–Suciu's notion.
func TestHierarchicalVariants(t *testing.T) {
	if qSET.IsHierarchical() {
		t.Error("ϕS-E-T must not be hierarchical (Koutris–Suciu)")
	}
	if !qSET.IsHierarchicalFinkOlteanu() {
		t.Error("ϕS-E-T must be hierarchical (Fink–Olteanu)")
	}
	if !qHier.IsHierarchical() {
		t.Error("Section 3's example must be hierarchical")
	}
	if !qET.IsHierarchical() {
		t.Error("ϕE-T is hierarchical (only condition (ii) fails)")
	}
}

// TestQHierarchicalByDefinition pins Definition 3.1 on every example the
// paper classifies explicitly.
func TestQHierarchicalByDefinition(t *testing.T) {
	cases := []struct {
		q    *Query
		want bool
	}{
		{qSET, false},     // violates (i)
		{qSETBool, false}, // violates (i)
		{qET, false},      // violates (ii)
		{qETFreeY, true},
		{qETJoin, true},
		{qETBool, true},
		{qHier, true},
		{qEx61, true},
		{qFig1, true},
		{qLoops, false}, // non-q-hierarchical (its core is q-hierarchical)
		{qPhi1, false},
	}
	for _, c := range cases {
		if got := c.q.IsQHierarchicalByDefinition(); got != c.want {
			t.Errorf("IsQHierarchicalByDefinition(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestComponents(t *testing.T) {
	q := MustParse("Q(x,u) :- E(x,y), T(y), F(u), G(u,w)")
	comps := q.Components()
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if got := strings.Join(comps[0].Head, ","); got != "x" {
		t.Errorf("component 0 head = %q", got)
	}
	if got := strings.Join(comps[1].Head, ","); got != "u" {
		t.Errorf("component 1 head = %q", got)
	}
	if len(comps[0].Atoms) != 2 || len(comps[1].Atoms) != 2 {
		t.Errorf("component atom counts: %d, %d", len(comps[0].Atoms), len(comps[1].Atoms))
	}
	if !qSET.IsConnected() {
		t.Error("qSET is connected")
	}
	if q.IsConnected() {
		t.Error("q is not connected")
	}
}

func TestComponentsCrossAtomConnectivity(t *testing.T) {
	// x–y connected through one atom, y–z through another: one component.
	q := MustParse("Q() :- E(x,y), F(y,z)")
	if n := len(q.Components()); n != 1 {
		t.Errorf("got %d components, want 1", n)
	}
}

func TestHomomorphismBasics(t *testing.T) {
	// Triangle maps into a looped vertex.
	tri := MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	loop := MustParse("Q() :- E(v,v)")
	if Homomorphism(tri, loop) == nil {
		t.Error("triangle must map into loop")
	}
	if Homomorphism(loop, tri) != nil {
		t.Error("loop must not map into a loop-free triangle")
	}
	// Heads block collapses.
	if Homomorphism(qPhi1, MustParse("Q(x,y) :- E(x,x), E(y,y)")) != nil {
		t.Error("missing E(x,y) atom in target")
	}
}

func TestHomomorphismRespectsHead(t *testing.T) {
	a := MustParse("Q(x) :- E(x,y)")
	b := MustParse("Q(u) :- E(u,u)")
	h := Homomorphism(a, b)
	if h == nil {
		t.Fatal("expected homomorphism")
	}
	if h["x"] != "u" {
		t.Errorf("head not respected: h(x) = %q", h["x"])
	}
	// Reverse direction: E(u,u) must map to some E edge with head u ↦ x;
	// E(x,x) is not present in a, so none exists.
	if Homomorphism(b, a) != nil {
		t.Error("unexpected homomorphism from loop query")
	}
}

func TestHomEquivalent(t *testing.T) {
	a := MustParse("Q(x) :- E(x,y), E(x,z)")
	b := MustParse("Q(x) :- E(x,y)")
	if !HomEquivalent(a, b) {
		t.Error("a and b are homomorphically equivalent")
	}
	if HomEquivalent(a, MustParse("Q(x) :- E(y,x)")) {
		t.Error("direction matters")
	}
}

// TestCoreLoops pins the paper's Section 3 example: the core of
// ∃x∃y (Exx ∧ Exy ∧ Eyy) is ∃x Exx.
func TestCoreLoops(t *testing.T) {
	c := Core(qLoops)
	if len(c.Atoms) != 1 {
		t.Fatalf("core has %d atoms, want 1: %v", len(c.Atoms), c)
	}
	if !Isomorphic(c, qLoopsCore) {
		t.Errorf("Core(%s) = %s, want iso to %s", qLoops, c, qLoopsCore)
	}
}

// TestCoreNonBooleanLoops pins the §5.4 phenomenon: ϕ(x,y) = Exx∧Exy∧Eyy
// is its own core because the head pins x and y.
func TestCoreNonBooleanLoops(t *testing.T) {
	c := Core(qPhi1)
	if len(c.Atoms) != 3 {
		t.Fatalf("core has %d atoms, want 3: %v", len(c.Atoms), c)
	}
	if !Isomorphic(c, qPhi1) {
		t.Errorf("Core(%s) = %s, want itself", qPhi1, c)
	}
}

func TestCoreSelfJoinFreeIsIdentity(t *testing.T) {
	// Self-join free queries are their own cores (Section 3).
	for _, q := range []*Query{qSET, qSETBool, qET} {
		c := Core(q)
		if !Isomorphic(c, q.DedupAtoms()) {
			t.Errorf("Core(%s) = %s, want itself", q, c)
		}
	}
}

func TestCoreIdempotent(t *testing.T) {
	queries := []*Query{
		qLoops, qPhi1, qSET, qEx61,
		MustParse("Q() :- E(x,y), E(y,z), E(z,x), E(u,u)"), // collapses to loop
		MustParse("Q(x) :- E(x,y), E(x,z), F(z)"),
	}
	for _, q := range queries {
		c := Core(q)
		cc := Core(c)
		if !Isomorphic(c, cc) {
			t.Errorf("Core not idempotent for %s: %s vs %s", q, c, cc)
		}
		if Homomorphism(q, c) == nil || Homomorphism(c, q) == nil {
			t.Errorf("Core(%s) = %s not hom-equivalent to original", q, c)
		}
	}
}

func TestCoreTriangleWithLoop(t *testing.T) {
	q := MustParse("Q() :- E(x,y), E(y,z), E(z,x), E(u,u)")
	c := Core(q)
	if len(c.Atoms) != 1 || !Isomorphic(c, qLoopsCore) {
		t.Errorf("Core(%s) = %s, want single loop", q, c)
	}
}

func TestBooleanVersion(t *testing.T) {
	b := BooleanVersion(qPhi1)
	if !b.IsBoolean() {
		t.Fatal("BooleanVersion not Boolean")
	}
	// The Boolean version of ϕ1 collapses to ∃x Exx — the asymmetry the
	// paper highlights before Theorem 3.5.
	if c := Core(b); !Isomorphic(c, qLoopsCore) {
		t.Errorf("Core(Bool(ϕ1)) = %s, want loop", c)
	}
}

func TestIsomorphic(t *testing.T) {
	a := MustParse("Q(x) :- E(x,y), F(y)")
	b := MustParse("Q(u) :- E(u,w), F(w)")
	if !Isomorphic(a, b) {
		t.Error("renamed copies must be isomorphic")
	}
	if Isomorphic(a, MustParse("Q(x) :- E(x,y), F(x)")) {
		t.Error("different shape must not be isomorphic")
	}
	if Isomorphic(a, MustParse("Q(y) :- E(x,y), F(y)")) {
		t.Error("different head must not be isomorphic")
	}
}

func TestDedupAtoms(t *testing.T) {
	q := MustParse("Q(x) :- E(x,y), E(x,y), E(y,x)")
	d := q.DedupAtoms()
	if len(d.Atoms) != 2 {
		t.Errorf("DedupAtoms left %d atoms, want 2", len(d.Atoms))
	}
}

func TestAtomVars(t *testing.T) {
	a := Atom{Rel: "R", Args: []string{"x", "y", "x"}}
	vs := a.Vars()
	if len(vs) != 2 || vs[0] != "x" || vs[1] != "y" {
		t.Errorf("Vars = %v", vs)
	}
}
