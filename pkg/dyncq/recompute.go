package dyncq

import (
	"fmt"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
)

// recompute is the recompute-from-scratch strategy: it keeps no state of
// its own at all — the workspace owns the shared store, updates cost the
// store mutation only, and Count, Answer and Enumerate re-evaluate the
// query over the store with internal/eval. Updates are as cheap as the
// database operation, but every read pays full join cost — the static
// baseline the dynamic strategies are measured against.
type recompute struct {
	q      *cq.Query
	store  *dyndb.Database
	schema map[string]int
}

// newRecomputeOn builds the strategy over the workspace's shared store.
func newRecomputeOn(q *cq.Query, store *dyndb.Database) *recompute {
	return &recompute{q: q, store: store, schema: q.Schema()}
}

// validate checks the shared store against the query schema — the
// rebuild step of a strategy with no materialised state.
func (r *recompute) validate() error {
	for _, rel := range r.store.Relations() {
		if want, ok := r.schema[rel]; ok && want != r.store.Relation(rel).Arity() {
			return fmt.Errorf("recompute: %s has arity %d in query, %d in the shared store", rel, want, r.store.Relation(rel).Arity())
		}
	}
	return nil
}

func (r *recompute) Count() uint64 { return uint64(eval.Count(r.q, r.store)) }

func (r *recompute) Answer() bool { return eval.Answer(r.q, r.store) }

// Enumerate re-evaluates the query and streams the result. The yielded
// slice follows the uniform contract of Handle.Enumerate (callee-owned,
// valid only during the call) even though this backend yields slices of
// a throwaway result set today — callers must not rely on backend
// accidents that are stronger than the contract.
func (r *recompute) Enumerate(yield func(tuple []Value) bool) {
	eval.Evaluate(r.q, r.store).Each(yield)
}
