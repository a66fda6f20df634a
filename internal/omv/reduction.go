package omv

import (
	"fmt"
	"slices"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
)

// DynamicEvaluator is the interface the reductions drive: any dynamic
// query-evaluation algorithm with update, Boolean answer, count and
// enumeration routines. A pkg/dyncq.Workspace with one registered query
// is one (Apply on the workspace, reads on the query's handle), backed
// by internal/core for q-hierarchical queries or by internal/ivm for
// arbitrary CQs, with Θ(n) updates.
type DynamicEvaluator interface {
	Apply(dyndb.Update) (bool, error)
	Answer() bool
	Count() uint64
	Enumerate(yield func(tuple []int64) bool)
}

// EvaluatorFactory builds a dynamic evaluator for a query over the empty
// database.
type EvaluatorFactory func(q *cq.Query) (DynamicEvaluator, error)

// ConditionIWitness is a violation of Definition 3.1(i): two variables
// x, y and three atoms ψx, ψxy, ψy of the query with
// vars(ψx)∩{x,y} = {x}, vars(ψxy)∩{x,y} = {x,y}, vars(ψy)∩{x,y} = {y}.
// Such a witness exists iff the query is non-hierarchical, and it is the
// gadget the OuMv reduction of Section 5.4 encodes into.
type ConditionIWitness struct {
	X, Y              string
	PsiX, PsiXY, PsiY int // atom indices
}

// FindConditionIWitness searches q for a condition-(i) violation.
func FindConditionIWitness(q *cq.Query) (ConditionIWitness, bool) {
	ao := q.AtomsOf()
	vars := q.Vars()
	for _, x := range vars {
		for _, y := range vars {
			if x == y {
				continue
			}
			ax, ay := ao[x], ao[y]
			psiX, psiXY, psiY := -1, -1, -1
			for i := range ax {
				if ay[i] {
					psiXY = i
				} else {
					psiX = i
				}
			}
			for i := range ay {
				if !ax[i] {
					psiY = i
				}
			}
			if psiX >= 0 && psiXY >= 0 && psiY >= 0 {
				return ConditionIWitness{X: x, Y: y, PsiX: psiX, PsiXY: psiXY, PsiY: psiY}, true
			}
		}
	}
	return ConditionIWitness{}, false
}

// ConditionIIWitness is a violation of Definition 3.1(ii): a free
// variable x, a quantified variable y, and atoms ψxy (containing both)
// and ψy (containing y but not x). Used by the OMv-to-enumeration and
// OV-to-counting reductions (Theorems 3.3 and 3.5, second cases).
type ConditionIIWitness struct {
	X, Y        string
	PsiXY, PsiY int
}

// FindConditionIIWitness searches q for a condition-(ii) violation. A
// witness it returns always has X in q.Head and Y among q's quantified
// variables: it draws x from the head and y from the rest.
func FindConditionIIWitness(q *cq.Query) (ConditionIIWitness, bool) {
	ao := q.AtomsOf()
	for _, x := range q.Head {
		for _, y := range q.QuantifiedVars() {
			ax, ay := ao[x], ao[y]
			psiXY, psiY := -1, -1
			for i := range ay {
				if ax[i] {
					psiXY = i
				} else {
					psiY = i
				}
			}
			// Section 5.4's reduction only needs the atom pair (ψxy, ψy);
			// whether atoms(x) ⊆ atoms(y) additionally holds is irrelevant.
			if psiXY >= 0 && psiY >= 0 {
				return ConditionIIWitness{X: x, Y: y, PsiXY: psiXY, PsiY: psiY}, true
			}
		}
	}
	return ConditionIIWitness{}, false
}

// encoder realises the §5.4 database encodings D(ϕ,M,u,v), D(ϕ,M,v) and
// D(ϕ,U,v): it maps the variables of ϕ to the constant families a_i (for
// x, i < nA), b_j (for y, j < nB) and c_s (one per remaining variable)
// and materialises per-atom tuple sets. Tuples arising from distinct
// atoms are distinct (the constant families are disjoint and an atom's
// tuple pattern determines its variable sequence), so per-atom insertions
// and deletions never interfere.
type encoder struct {
	q      *cq.Query
	x, y   string
	nA, nB int
	cOf    map[string]int64 // c_s constants for variables other than x, y
}

func newEncoder(q *cq.Query, x, y string, nA, nB int) *encoder {
	e := &encoder{q: q, x: x, y: y, nA: nA, nB: nB, cOf: make(map[string]int64)}
	next := int64(1)
	for _, v := range q.Vars() {
		if v != x && v != y {
			e.cOf[v] = next
			next++
		}
	}
	return e
}

// aConst and bConst return the constants a_i and b_j (0-based i, j).
func (e *encoder) aConst(i int) int64 { return int64(len(e.cOf)) + 1 + int64(i) }
func (e *encoder) bConst(j int) int64 { return int64(len(e.cOf)) + 1 + int64(e.nA) + int64(j) }

// tuple materialises ι_{i,j}(ψ) for atom index ai.
func (e *encoder) tuple(ai, i, j int) []int64 {
	a := e.q.Atoms[ai]
	t := make([]int64, len(a.Args))
	for p, v := range a.Args {
		switch v {
		case e.x:
			t[p] = e.aConst(i)
		case e.y:
			t[p] = e.bConst(j)
		default:
			t[p] = e.cOf[v]
		}
	}
	return t
}

// dependsOn reports whether atom ai contains x and/or y.
func (e *encoder) dependsOn(ai int) (onX, onY bool) {
	for _, v := range e.q.Atoms[ai].Args {
		if v == e.x {
			onX = true
		}
		if v == e.y {
			onY = true
		}
	}
	return
}

// staticUpdates returns the insertions for every atom except the listed
// dynamic ones: tuples ι_{i,j}(ψ) for all relevant (i,j) (deduplicated by
// which of x, y the atom actually mentions).
func (e *encoder) staticUpdates(except map[int]bool) []dyndb.Update {
	var out []dyndb.Update
	for ai, a := range e.q.Atoms {
		if except[ai] {
			continue
		}
		onX, onY := e.dependsOn(ai)
		switch {
		case onX && onY:
			for i := 0; i < e.nA; i++ {
				for j := 0; j < e.nB; j++ {
					out = append(out, dyndb.Insert(a.Rel, e.tuple(ai, i, j)...))
				}
			}
		case onX:
			for i := 0; i < e.nA; i++ {
				out = append(out, dyndb.Insert(a.Rel, e.tuple(ai, i, 0)...))
			}
		case onY:
			for j := 0; j < e.nB; j++ {
				out = append(out, dyndb.Insert(a.Rel, e.tuple(ai, 0, j)...))
			}
		default:
			out = append(out, dyndb.Insert(a.Rel, e.tuple(ai, 0, 0)...))
		}
	}
	return out
}

// matrixUpdates returns the insertions encoding M into atom ai
// (ι_{i,j}(ψ) for all M_{ij} = 1).
func (e *encoder) matrixUpdates(ai int, m Matrix) []dyndb.Update {
	var out []dyndb.Update
	rel := e.q.Atoms[ai].Rel
	for i := 0; i < e.nA; i++ {
		for j := 0; j < e.nB; j++ {
			if m.Get(i, j) {
				out = append(out, dyndb.Insert(rel, e.tuple(ai, i, j)...))
			}
		}
	}
	return out
}

// vectorDiffX returns the updates switching atom ai's relation from
// encoding vector prev to encoding next, where the atom depends on x
// (entry i toggles tuple ι_{i,·}).
func (e *encoder) vectorDiffX(ai int, prev, next Vector) []dyndb.Update {
	var out []dyndb.Update
	rel := e.q.Atoms[ai].Rel
	for i := 0; i < e.nA; i++ {
		was, is := prev.Get(i), next.Get(i)
		if was == is {
			continue
		}
		if is {
			out = append(out, dyndb.Insert(rel, e.tuple(ai, i, 0)...))
		} else {
			out = append(out, dyndb.Delete(rel, e.tuple(ai, i, 0)...))
		}
	}
	return out
}

// vectorDiffY is vectorDiffX for a y-dependent atom (entry j toggles
// ι_{·,j}).
func (e *encoder) vectorDiffY(ai int, prev, next Vector) []dyndb.Update {
	var out []dyndb.Update
	rel := e.q.Atoms[ai].Rel
	for j := 0; j < e.nB; j++ {
		was, is := prev.Get(j), next.Get(j)
		if was == is {
			continue
		}
		if is {
			out = append(out, dyndb.Insert(rel, e.tuple(ai, 0, j)...))
		} else {
			out = append(out, dyndb.Delete(rel, e.tuple(ai, 0, j)...))
		}
	}
	return out
}

// AnswerReduction is the Theorem 3.4 reduction: OuMv solved through
// Boolean answering of a conjunctive query whose homomorphic core is not
// hierarchical (violates Definition 3.1(i)). Claims 5.6 and 5.7 guarantee
// correctness: for the core ϕ of the query, uᵀMv = 1 iff ϕ holds on
// D(ϕ,M,u,v).
type AnswerReduction struct {
	wit  ConditionIWitness
	enc  *encoder
	ev   DynamicEvaluator
	u, v Vector
}

// NewAnswerReduction prepares the reduction for q (taking its core
// internally) with side length n, using factory to build the dynamic
// evaluator. It fails if the core is hierarchical — then condition (i)
// holds and this gadget does not apply (see NewEnumerateReduction for the
// condition-(ii) case).
func NewAnswerReduction(q *cq.Query, n int, factory EvaluatorFactory) (*AnswerReduction, error) {
	core := cq.Core(q)
	wit, ok := FindConditionIWitness(core)
	if !ok {
		return nil, fmt.Errorf("omv: core of %s is hierarchical; the OuMv answering gadget needs a condition-(i) violation", q)
	}
	ev, err := factory(core)
	if err != nil {
		return nil, fmt.Errorf("omv: building evaluator: %w", err)
	}
	return &AnswerReduction{
		wit: wit,
		enc: newEncoder(core, wit.X, wit.Y, n, n),
		ev:  ev,
		u:   NewVector(n),
		v:   NewVector(n),
	}, nil
}

// SetMatrix loads M into the ψxy relation and materialises all static
// atoms (the preprocessing phase: at most n² + O(n) updates).
func (r *AnswerReduction) SetMatrix(m Matrix) error {
	if m.Dim() != r.enc.nA {
		return fmt.Errorf("omv: matrix dim %d, reduction built for %d", m.Dim(), r.enc.nA)
	}
	except := map[int]bool{r.wit.PsiX: true, r.wit.PsiXY: true, r.wit.PsiY: true}
	for _, u := range r.enc.staticUpdates(except) {
		if _, err := r.ev.Apply(u); err != nil {
			return err
		}
	}
	for _, u := range r.enc.matrixUpdates(r.wit.PsiXY, m) {
		if _, err := r.ev.Apply(u); err != nil {
			return err
		}
	}
	return nil
}

// Round processes one OuMv round: switch the ψx and ψy relations to the
// characteristic vectors of u and v (at most 2n updates) and return the
// Boolean answer, which equals uᵀMv.
func (r *AnswerReduction) Round(u, v Vector) (bool, error) {
	for _, upd := range r.enc.vectorDiffX(r.wit.PsiX, r.u, u) {
		if _, err := r.ev.Apply(upd); err != nil {
			return false, err
		}
	}
	for _, upd := range r.enc.vectorDiffY(r.wit.PsiY, r.v, v) {
		if _, err := r.ev.Apply(upd); err != nil {
			return false, err
		}
	}
	r.u, r.v = u.Clone(), v.Clone()
	return r.ev.Answer(), nil
}

// SolveOuMvViaAnswering runs the full Theorem 3.4 pipeline: preprocessing
// with M, then one Round per vector pair.
func SolveOuMvViaAnswering(q *cq.Query, m Matrix, us, vs []Vector, factory EvaluatorFactory) ([]bool, error) {
	if len(us) != len(vs) {
		return nil, fmt.Errorf("omv: |us| = %d, |vs| = %d", len(us), len(vs))
	}
	r, err := NewAnswerReduction(q, m.Dim(), factory)
	if err != nil {
		return nil, err
	}
	if err := r.SetMatrix(m); err != nil {
		return nil, err
	}
	out := make([]bool, len(us))
	for t := range us {
		out[t], err = r.Round(us[t], vs[t])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EnumerateReduction is the Theorem 3.3 reduction for queries satisfying
// condition (i) but violating condition (ii) (the proof's second case,
// generalising Lemma 5.4's ϕE-T example): OMv solved through enumeration
// of a self-join-free query. After loading M into ψxy, each round updates
// ψy to v_t and reads M·v_t off the x-coordinates of the enumerated
// result.
type EnumerateReduction struct {
	q    *cq.Query
	wit  ConditionIIWitness
	enc  *encoder
	ev   DynamicEvaluator
	v    Vector
	xPos int // position of x in the head
}

// NewEnumerateReduction prepares the reduction. The query must be
// self-join free (as in Theorem 3.3: every homomorphism then agrees with
// some ι_{i,j}) and violate condition (ii).
func NewEnumerateReduction(q *cq.Query, n int, factory EvaluatorFactory) (*EnumerateReduction, error) {
	if !q.IsSelfJoinFree() {
		return nil, fmt.Errorf("omv: %s is not self-join free; Theorem 3.3's reduction needs self-join freeness", q)
	}
	wit, ok := FindConditionIIWitness(q)
	if !ok {
		return nil, fmt.Errorf("omv: %s has no condition-(ii) violation; use AnswerReduction for condition-(i) cases", q)
	}
	ev, err := factory(q)
	if err != nil {
		return nil, err
	}
	return &EnumerateReduction{
		q:    q,
		wit:  wit,
		enc:  newEncoder(q, wit.X, wit.Y, n, n),
		ev:   ev,
		v:    NewVector(n),
		xPos: slices.Index(q.Head, wit.X),
	}, nil
}

// SetMatrix loads M into ψxy and materialises the static atoms.
func (r *EnumerateReduction) SetMatrix(m Matrix) error {
	if m.Dim() != r.enc.nA {
		return fmt.Errorf("omv: matrix dim %d, reduction built for %d", m.Dim(), r.enc.nA)
	}
	except := map[int]bool{r.wit.PsiXY: true, r.wit.PsiY: true}
	for _, u := range r.enc.staticUpdates(except) {
		if _, err := r.ev.Apply(u); err != nil {
			return err
		}
	}
	for _, u := range r.enc.matrixUpdates(r.wit.PsiXY, m) {
		if _, err := r.ev.Apply(u); err != nil {
			return err
		}
	}
	return nil
}

// Round processes one OMv round: switch ψy to the characteristic vector
// of v (at most n updates), enumerate the ≤ n result tuples, and return
// M·v read off the a_i constants in the x position.
func (r *EnumerateReduction) Round(v Vector) (Vector, error) {
	for _, upd := range r.enc.vectorDiffY(r.wit.PsiY, r.v, v) {
		if _, err := r.ev.Apply(upd); err != nil {
			return Vector{}, err
		}
	}
	r.v = v.Clone()
	out := NewVector(r.enc.nA)
	base := r.enc.aConst(0)
	r.ev.Enumerate(func(t []int64) bool {
		i := int(t[r.xPos] - base)
		if i >= 0 && i < r.enc.nA {
			out.Set(i, true)
		}
		return true
	})
	return out, nil
}

// SolveOMvViaEnumeration runs the full Theorem 3.3 pipeline on q
// (canonically ϕE-T(x) = ∃y (Exy ∧ Ty)).
func SolveOMvViaEnumeration(q *cq.Query, m Matrix, vs []Vector, factory EvaluatorFactory) ([]Vector, error) {
	r, err := NewEnumerateReduction(q, m.Dim(), factory)
	if err != nil {
		return nil, err
	}
	if err := r.SetMatrix(m); err != nil {
		return nil, err
	}
	out := make([]Vector, len(vs))
	for t, v := range vs {
		out[t], err = r.Round(v)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
