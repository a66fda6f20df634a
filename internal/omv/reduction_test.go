package omv

import (
	"math/rand"
	"slices"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/pkg/dyncq"
)

// wsEvaluator adapts a one-query workspace to DynamicEvaluator: updates
// go through the workspace, reads through the query's handle.
type wsEvaluator struct {
	*dyncq.Handle
	ws *dyncq.Workspace
}

func (e wsEvaluator) Apply(u dyndb.Update) (bool, error) {
	n, _, err := e.ws.Commit([]dyndb.Update{u})
	return n > 0, err
}

// ivmFactory serves q with the IVM strategy (any CQ is accepted).
func ivmFactory(q *cq.Query) (DynamicEvaluator, error) {
	ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{})
	h, err := ws.RegisterQuery("q", q, dyncq.Options{Force: dyncq.StrategyIVM})
	return wsEvaluator{Handle: h, ws: ws}, err
}

// TestFindConditionIWitness: the paper's hard queries must yield a
// condition-(i) violation; hierarchical queries must not.
func TestFindConditionIWitness(t *testing.T) {
	hard := []string{
		"Q(x,y) :- S(x), E(x,y), T(y)",  // ϕS-E-T
		"Q() :- S(x), E(x,y), T(y)",     // ϕ1
		"Q() :- E(x,y), F(y,z), G(z,x)", // triangle
	}
	for _, text := range hard {
		q := cq.MustParse(text)
		wit, ok := FindConditionIWitness(q)
		if !ok {
			t.Errorf("%s: no condition-(i) witness found", text)
			continue
		}
		// Verify the witness against its definition.
		ao := q.AtomsOf()
		x, y := wit.X, wit.Y
		if !ao[x][wit.PsiX] || ao[y][wit.PsiX] {
			t.Errorf("%s: ψx=%d does not isolate %s", text, wit.PsiX, x)
		}
		if !ao[x][wit.PsiXY] || !ao[y][wit.PsiXY] {
			t.Errorf("%s: ψxy=%d does not contain both %s and %s", text, wit.PsiXY, x, y)
		}
		if ao[x][wit.PsiY] || !ao[y][wit.PsiY] {
			t.Errorf("%s: ψy=%d does not isolate %s", text, wit.PsiY, y)
		}
		if q.IsHierarchical() {
			t.Errorf("%s: witness found but query is hierarchical", text)
		}
	}
	easy := []string{
		"Q(x) :- E(x,y), T(y)", // ϕE-T: hierarchical, violates only (ii)
		"Q(x,y) :- E(x,y)",
		"Q() :- R(x)",
	}
	for _, text := range easy {
		q := cq.MustParse(text)
		if wit, ok := FindConditionIWitness(q); ok {
			t.Errorf("%s: unexpected condition-(i) witness %+v on a hierarchical query", text, wit)
		}
	}
}

// TestFindConditionIIWitness: ϕE-T-style queries must yield a
// condition-(ii) violation whose x is free and whose y is quantified — the
// guarantee NewEnumerateReduction reads x's head position by — with atoms
// that witness it; q-hierarchical queries must not yield either kind.
func TestFindConditionIIWitness(t *testing.T) {
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	if wit, ok := FindConditionIIWitness(q); !ok || wit.X != "x" || wit.Y != "y" {
		t.Fatalf("%s: witness %+v (found %v), want (x,y)", q, wit, ok)
	}
	for _, text := range []string{
		"Q(x) :- E(x,y), T(y)",
		"Q(z,x) :- R(z), E(x,y), T(y)",
		"Q(x,z) :- E(x,y), T(y), S(z,w)",
		"Q(x) :- E(x,y), F(y,w), T(w)",
		"Q(x,x2) :- E(x,y), T(y), E(x2,y2), T(y2)",
	} {
		qq := cq.MustParse(text)
		wit, ok := FindConditionIIWitness(qq)
		if !ok {
			t.Fatalf("%s: no condition-(ii) witness", text)
		}
		if !slices.Contains(qq.Head, wit.X) || !slices.Contains(qq.QuantifiedVars(), wit.Y) {
			t.Fatalf("%s: witness (%s,%s) does not draw x from the head and y from the quantified variables", text, wit.X, wit.Y)
		}
		ao := qq.AtomsOf()
		if !ao[wit.X][wit.PsiXY] || !ao[wit.Y][wit.PsiXY] || ao[wit.X][wit.PsiY] || !ao[wit.Y][wit.PsiY] {
			t.Fatalf("%s: witness atoms wrong: %+v", text, wit)
		}
	}
	for _, text := range []string{
		"Q(y) :- E(x,y), T(y)", // q-hierarchical
		"Q(x,y) :- E(x,y)",
		"Q() :- E(x,y), T(y)", // Boolean: no free variable, no (ii) violation
	} {
		qq := cq.MustParse(text)
		if w, ok := FindConditionIIWitness(qq); ok {
			t.Errorf("%s: unexpected condition-(ii) witness %+v", text, w)
		}
	}
	// Every q-hierarchical query has neither witness (Definition 3.1).
	qh := cq.MustParse("Q(y) :- E(x,y), T(y)")
	if _, ok := FindConditionIWitness(qh); ok {
		t.Errorf("%s: condition-(i) witness on a q-hierarchical query", qh)
	}
}

// TestEncoderRoundTrip: loading a matrix through the encoder's update
// stream into a plain database and decoding the constants back must
// reproduce the matrix exactly, and vector diffs must track vector state.
func TestEncoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	const n = 17
	enc := newEncoder(q, "x", "y", n, n)
	m := RandomMatrix(rng, n, 0.35)

	db := dyndb.New()
	for _, u := range enc.matrixUpdates(0, m) { // atom 0 is E(x,y)
		if _, err := db.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	got := NewMatrix(n)
	aBase, bBase := enc.aConst(0), enc.bConst(0)
	db.Relation("E").Each(func(tu []int64) bool {
		i, j := int(tu[0]-aBase), int(tu[1]-bBase)
		if i < 0 || i >= n || j < 0 || j >= n {
			t.Fatalf("tuple %v decodes outside the matrix: (%d,%d)", tu, i, j)
		}
		got.Set(i, j, true)
		return true
	})
	for i := 0; i < n; i++ {
		if !got.Row(i).Equal(m.Row(i)) {
			t.Fatalf("row %d: got %s, want %s", i, got.Row(i), m.Row(i))
		}
	}

	// Vector diffs: walking prev→next must leave exactly next's bits set.
	prev := NewVector(n)
	for step := 0; step < 10; step++ {
		next := RandomVector(rng, n, 0.4)
		for _, u := range enc.vectorDiffY(1, prev, next) { // atom 1 is T(y)
			changed, err := db.Apply(u)
			if err != nil {
				t.Fatal(err)
			}
			if !changed {
				t.Fatalf("diff update %s was a no-op: diffs must be exact", u)
			}
		}
		decoded := NewVector(n)
		db.Relation("T").Each(func(tu []int64) bool {
			decoded.Set(int(tu[0]-bBase), true)
			return true
		})
		if !decoded.Equal(next) {
			t.Fatalf("step %d: decoded %s, want %s", step, decoded, next)
		}
		prev = next
	}
}

// TestSolveOuMvViaAnswering: the Theorem 3.4 reduction driven by the IVM
// baseline must agree with the naive OuMv solver.
func TestSolveOuMvViaAnswering(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)")
	for trial := 0; trial < 3; trial++ {
		n := 4 + rng.Intn(6)
		m, us, vs := RandomOuMvInstance(rng, n, 0.3)
		got, err := SolveOuMvViaAnswering(q, m, us, vs, ivmFactory)
		if err != nil {
			t.Fatal(err)
		}
		want := NaiveOuMv(m, us, vs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d round %d: reduction %v, naive %v", n, i, got[i], want[i])
			}
		}
	}
	// The gadget must refuse hierarchical cores.
	if _, err := NewAnswerReduction(cq.MustParse("Q(x) :- E(x,y), T(y)"), 4, ivmFactory); err == nil {
		t.Fatal("AnswerReduction accepted a query with hierarchical core")
	}
}

// TestSolveOMvViaEnumeration: the Theorem 3.3 reduction on ϕE-T must
// agree with the naive OMv solver.
func TestSolveOMvViaEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	for trial := 0; trial < 3; trial++ {
		n := 4 + rng.Intn(6)
		m := RandomMatrix(rng, n, 0.3)
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = RandomVector(rng, n, 0.3)
		}
		got, err := SolveOMvViaEnumeration(q, m, vs, ivmFactory)
		if err != nil {
			t.Fatal(err)
		}
		want := NaiveOMv(m, vs)
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("n=%d round %d: reduction %s, naive %s", n, i, got[i], want[i])
			}
		}
	}
	// The gadget must refuse queries without a condition-(ii) violation.
	if _, err := NewEnumerateReduction(cq.MustParse("Q(y) :- E(x,y), T(y)"), 4, ivmFactory); err == nil {
		t.Fatal("EnumerateReduction accepted a q-hierarchical query")
	}
}
