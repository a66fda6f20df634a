package dyncq

import (
	"fmt"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/tuplekey"
)

// recompute is the recompute-from-scratch strategy: it keeps no state of
// its own between commits — the workspace owns the shared store, updates
// cost the store mutation only, and Count, Answer, Enumerate and Contains
// re-evaluate the query over the store with internal/eval. Updates are as
// cheap as the database operation, but every read pays full join cost —
// the static baseline the dynamic strategies are measured against, and
// the oracle their result deltas are tested against: a commit whose delta
// is wanted evaluates the query before and after and diffs the two.
type recompute struct {
	q      *cq.Query
	store  *dyndb.Database
	schema map[string]int
	// before is the result ahead of the open commit, held from begin to
	// finish and only when the commit's delta is wanted.
	before *tuplekey.Table[bool]
}

// newRecompute builds the strategy over the workspace's shared store.
func newRecompute(q *cq.Query, store *dyndb.Database) *recompute {
	return &recompute{q: q, store: store, schema: q.Schema()}
}

func (r *recompute) Count() uint64 { return uint64(eval.Count(r.q, r.store)) }

func (r *recompute) Answer() bool { return eval.Answer(r.q, r.store) }

// Enumerate re-evaluates the query and streams the result. The yielded
// slice follows the uniform contract of Handle.Enumerate (callee-owned,
// valid only during the call): it aliases the throwaway result set's
// storage.
func (r *recompute) Enumerate(yield func(tuple []Value) bool) {
	eval.Evaluate(r.q, r.store).Each(yield)
}

// Contains costs an evaluation: the strategy stores nothing to look the
// tuple up in.
func (r *recompute) Contains(tuple []Value) bool {
	return eval.Evaluate(r.q, r.store).Has(tuple)
}

func (r *recompute) begin(_ int, emit bool) bool {
	if emit {
		r.before = resultImage(r, len(r.q.Head))
	}
	return false
}

func (r *recompute) preDelete(string, [][]Value)  {}
func (r *recompute) postInsert(string, [][]Value) {}

func (r *recompute) finish([]Update, int) (added, removed [][]Value) {
	if r.before != nil {
		added, removed = diffImage(r.before, r)
		r.before = nil
	}
	return added, removed
}

// rebuild checks the shared store against the query schema — all there
// is to rebuild for a strategy with no materialised state.
func (r *recompute) rebuild(*eval.IndexSet) error {
	for _, rel := range r.store.Relations() {
		if want, ok := r.schema[rel]; ok && want != r.store.Relation(rel).Arity() {
			return fmt.Errorf("recompute: %s has arity %d in query, %d in the shared store", rel, want, r.store.Relation(rel).Arity())
		}
	}
	return nil
}

func (r *recompute) clear(*eval.IndexSet) {}
