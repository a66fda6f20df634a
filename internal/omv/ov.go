package omv

import (
	"fmt"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
)

// CountReduction is the Theorem 3.5 (second case) reduction, generalising
// Lemma 5.5's ϕE-T example: the orthogonal vectors problem solved through
// dynamic counting of a self-join-free query violating condition (ii).
//
// The database D(ϕ,U,v) encodes the vector set U into the ψxy relation
// over pairs (a_i, b_j) with i < n = |U| and j < d (the vector dimension)
// and the current right-hand vector v into ψy. Self-join-freeness makes
// every homomorphism an ι_{i,j}, so
//
//	|ϕ(D)| = |{ i : ⟨u_i, v⟩ ≠ 0 }|,
//
// and some u_i is orthogonal to v iff the count is < n. Each new v costs
// at most d updates plus one count call.
//
// (For queries with self-joins, Theorem 3.5 composes this with the
// Lemma 5.8 partition-counting gadget, which this package does not
// implement: NewCountReduction rejects them.)
type CountReduction struct {
	q   *cq.Query
	wit ConditionIIWitness
	enc *encoder
	ev  DynamicEvaluator
	v   Vector
	n   int
}

// NewCountReduction prepares the reduction for n vectors of dimension d.
func NewCountReduction(q *cq.Query, n, d int, factory EvaluatorFactory) (*CountReduction, error) {
	if !q.IsSelfJoinFree() {
		return nil, fmt.Errorf("omv: %s is not self-join free; compose with the Lemma 5.8 gadget instead", q)
	}
	wit, ok := FindConditionIIWitness(q)
	if !ok {
		return nil, fmt.Errorf("omv: %s has no condition-(ii) violation", q)
	}
	ev, err := factory(q)
	if err != nil {
		return nil, err
	}
	return &CountReduction{
		q:   q,
		wit: wit,
		enc: newEncoder(q, wit.X, wit.Y, n, d),
		ev:  ev,
		v:   NewVector(d),
		n:   n,
	}, nil
}

// SetVectors loads U into ψxy ((a_i,b_j) present iff u_i[j] = 1) and
// materialises the static atoms — at most n·d + O(n+d) updates.
func (r *CountReduction) SetVectors(u []Vector) error {
	if len(u) != r.n {
		return fmt.Errorf("omv: %d vectors, reduction built for %d", len(u), r.n)
	}
	except := map[int]bool{r.wit.PsiXY: true, r.wit.PsiY: true}
	for _, upd := range r.enc.staticUpdates(except) {
		if _, err := r.ev.Apply(upd); err != nil {
			return err
		}
	}
	rel := r.q.Atoms[r.wit.PsiXY].Rel
	for i, ui := range u {
		if ui.Dim() != r.enc.nB {
			return fmt.Errorf("omv: vector %d has dimension %d, want %d", i, ui.Dim(), r.enc.nB)
		}
		for j := 0; j < r.enc.nB; j++ {
			if ui.Get(j) {
				if _, err := r.ev.Apply(dyndb.Insert(rel, r.enc.tuple(r.wit.PsiXY, i, j)...)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Round switches ψy to the characteristic vector of v (at most d
// updates) and reports whether some u_i is orthogonal to v
// (count < n).
func (r *CountReduction) Round(v Vector) (foundOrthogonal bool, err error) {
	for _, upd := range r.enc.vectorDiffY(r.wit.PsiY, r.v, v) {
		if _, err := r.ev.Apply(upd); err != nil {
			return false, err
		}
	}
	r.v = v.Clone()
	return r.ev.Count() < uint64(r.n), nil
}

// SolveOVViaCounting runs the full Lemma 5.5 pipeline on q (canonically
// ϕE-T(x) = ∃y (Exy ∧ Ty)): it reports whether the instance has an
// orthogonal pair, touching each v ∈ V with ≤ d updates and one count.
func SolveOVViaCounting(q *cq.Query, inst OVInstance, factory EvaluatorFactory) (bool, error) {
	if len(inst.U) == 0 || len(inst.V) == 0 {
		return false, nil
	}
	d := inst.U[0].Dim()
	r, err := NewCountReduction(q, len(inst.U), d, factory)
	if err != nil {
		return false, err
	}
	if err := r.SetVectors(inst.U); err != nil {
		return false, err
	}
	for _, v := range inst.V {
		found, err := r.Round(v)
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}
