// Package ivm is a classical incremental view maintenance (IVM) baseline:
// it maintains the materialised result of an arbitrary conjunctive query
// (no q-hierarchy required) with counting-based delta processing, the
// approach of Gupta–Mumick–Subrahmanian that the paper cites as the
// practical state of the art ([22] in Section 1.2).
//
// For every head tuple the maintainer stores its multiplicity: the number
// of valuations (homomorphisms over all variables) projecting to it.
// An update to relation R triggers the delta rule
//
//	Δ = Σ_{∅≠S⊆occ(R)} (−1)^{|S|+1} · N_S,
//
// where occ(R) is the set of atoms over R and N_S counts valuations with
// the atoms in S restricted to the updated tuples, evaluated over the
// post-state (insert) or pre-state (delete) — the inclusion–exclusion
// form of the standard delta query, correct under set semantics and
// self-joins.
//
// The point of this baseline in the reproduction: its update cost is a
// residual join, i.e. Θ(n) or worse for the paper's hard queries
// (ϕS-E-T, ϕE-T, ϕ1), whereas the engine in internal/core achieves O(1) —
// but only for q-hierarchical queries. Where Theorems 3.3–3.5 apply —
// enumeration of self-join-free queries, answering and counting of
// queries whose (Boolean version's, own) homomorphic core is not
// q-hierarchical — the gap is fundamental, not an artefact of this
// particular baseline.
//
// A Maintainer reads the store of its owner (pkg/dyncq.Workspace) and
// never writes it; its residual joins probe the store's own indexes
// (store.Index), which the store maintains. The owner brackets each store
// mutation with the maintainer's delta hooks (see Maintainer).
package ivm

import (
	"fmt"
	"math/bits"
	"slices"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/tuplekey"
)

// Value is a database constant.
type Value = dyndb.Value

// Maintainer keeps |ϕ(D)| and the materialised ϕ(D) up to date under
// updates, for any conjunctive query. It is a pure maintenance structure:
// the store, with the indexes it maintains, belongs to the owner
// (pkg/dyncq.Workspace), which mutates it exactly once per command no
// matter how many IVM-backed queries are live; the maintainer only reads
// it. Delta processing needs the store in a specific state relative to
// each relation's mutation — deletion deltas are evaluated on the
// pre-state, insertion deltas on the post-state — so the owner drives the
// maintainer through per-relation hooks interleaved with the store
// mutation:
//
//	BeginBatch(survivors, emit)      // crossover decision
//	for each relation of the net delta:
//	    PreDelete(rel, dels)         // store still pre-state here
//	    <owner deletes dels, inserts ins>
//	    PostInsert(rel, ins)         // store post-state here
//	FinishBatch()                    // rebuild if the crossover chose it
//
// A single update is a batch of one. When BeginBatch is asked to emit,
// FinishBatch returns what the batch did to ϕ(D), found among the head
// tuples the delta joins touched — no walk over the result. Not safe for
// concurrent writers; the read methods may run concurrently with each
// other.
type Maintainer struct {
	query *cq.Query
	db    *dyndb.Database
	// result maps head tuples to their valuation multiplicity.
	result *tuplekey.Table[int64]
	// occ maps relation names to the indices of atoms over them.
	occ map[string][]int
	// ev runs the delta joins; emit adds each valuation's head tuple to
	// result with the running join's coefficient coef, straight away.
	// restricted holds the join's atom overrides. All of it is scratch
	// reused from join to join, so a delta join allocates nothing per
	// valuation and nothing per call.
	ev         *eval.Evaluator
	coef       int64
	emit       func(head []Value) bool
	restricted eval.Restricted
	// rebuildPending is set by BeginBatch when the batch is large enough
	// that one full re-evaluation beats per-relation delta joins; the
	// delta hooks then no-op and FinishBatch rebuilds.
	rebuildPending bool
	// While the open batch emits its result delta (emitting), touched
	// holds for every head tuple a delta join reached whether it was in the
	// result when the batch first touched it. FinishBatch compares that
	// with the final state. A running zero-crossing test would be wrong:
	// inclusion–exclusion takes a multiplicity through transient zeros.
	emitting bool
	touched  *tuplekey.Table[bool]
	// out is the scratch FinishBatch lends the result delta from.
	out tuplekey.DeltaRows
}

// New returns a maintainer for q reading the given store. Any valid CQ is
// accepted. The maintainer starts with an empty materialised result: if
// store is already non-empty, call Rebuild to evaluate over it.
func New(q *cq.Query, store *dyndb.Database) (*Maintainer, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("ivm.New: %w", err)
	}
	arity := len(q.Head)
	m := &Maintainer{
		query:      q,
		db:         store,
		result:     tuplekey.NewTable[int64](arity),
		occ:        make(map[string][]int),
		ev:         eval.NewEvaluator(q),
		restricted: eval.Restricted{},
		touched:    tuplekey.NewTable[bool](arity),
	}
	m.emit = func(head []Value) bool {
		m.add(head, m.coef)
		return true
	}
	for i, a := range q.Atoms {
		m.occ[a.Rel] = append(m.occ[a.Rel], i)
	}
	return m, nil
}

// Query returns the maintained query.
func (m *Maintainer) Query() *cq.Query { return m.query }

// BeginBatch opens a batch of the given net-delta size (commands that
// will change the store) and reports whether the owner must run the
// relation-phased schedule for it. Heuristic crossover: once the delta is
// a third or more of the resulting database, |delta| residual joins cost
// more than one full re-evaluation, so the per-relation hooks no-op,
// FinishBatch rebuilds from the post-state store, and the owner is free
// to apply the store phase in any order. In particular a bulk load into
// an empty store always takes the rebuild path. With emit set,
// FinishBatch returns the batch's result delta.
func (m *Maintainer) BeginBatch(survivors int, emit bool) (phased bool) {
	m.rebuildPending = survivors*3 >= m.db.Cardinality()+survivors
	m.emitting = emit
	return !m.rebuildPending
}

// PreDelete propagates the deletion delta of one relation, evaluated on
// the pre-state: the owner must call it BEFORE deleting the tuples from
// the store. Every tuple must currently be present (the owner's net-delta
// filter guarantees it). Cost: the residual joins N_S (data-dependent;
// this is the baseline the core engine's O(1) is compared against).
func (m *Maintainer) PreDelete(rel string, tuples [][]Value) { m.propagate(rel, tuples, -1) }

// PostInsert propagates the insertion delta of one relation, evaluated
// on the post-state: the owner must call it AFTER inserting the tuples
// into the store.
func (m *Maintainer) PostInsert(rel string, tuples [][]Value) { m.propagate(rel, tuples, +1) }

// propagate adds sign × (the number of valuations using at least one of
// the tuples in at least one occurrence of rel) to the multiplicities, by
// inclusion–exclusion over the nonempty subsets of rel's occurrences:
// each term is a delta join with the subset's atoms overridden whose
// valuations go into the multiplicities one by one, with sign for an odd
// subset and −sign for an even one — so a multiplicity may pass through
// zero, or below it, inside a term as well as between terms; add keeps
// the presence the batch found, not the crossings. All tuples share
// the delta's direction (all inserted, evaluated post-state, or all
// deleted, evaluated pre-state); a single update is a set of one.
func (m *Maintainer) propagate(rel string, tuples [][]Value, sign int64) {
	occs := m.occ[rel]
	if m.rebuildPending || len(tuples) == 0 {
		return
	}
	for mask := 1; mask < 1<<uint(len(occs)); mask++ {
		clear(m.restricted)
		for b, atom := range occs {
			if mask&(1<<uint(b)) != 0 {
				m.restricted[atom] = tuples
			}
		}
		m.coef = sign
		if bits.OnesCount(uint(mask))%2 == 0 {
			m.coef = -sign
		}
		m.ev.Run(m.db, m.restricted, m.emit)
	}
}

// FinishBatch closes the batch opened by BeginBatch: if the crossover
// chose a rebuild, the materialised result is recomputed with one full
// evaluation over the (now post-state) store. If the batch emits, it
// returns the tuples ϕ(D) gained and lost, disjoint, each side in
// lexicographic order: the touched tuples whose presence changed, or — on
// the rebuild path, which only a batch of a third of the store takes —
// the difference of the old and new materialisations. They are lent from
// the maintainer's scratch until the next FinishBatch that emits.
//
//dyncq:hot
func (m *Maintainer) FinishBatch() (added, removed [][]Value) {
	emitting := m.emitting
	m.emitting = false
	if m.rebuildPending {
		m.rebuildPending = false
		old := m.result
		m.result = m.evaluate()
		if !emitting {
			return nil, nil
		}
		old.Keys(func(t []Value) bool {
			if !m.result.Has(t) {
				m.out.Add(true, t)
			}
			return true
		})
		m.result.Keys(func(t []Value) bool {
			if !old.Has(t) {
				m.out.Add(false, t)
			}
			return true
		})
	} else if emitting {
		m.touched.Range(func(t []Value, was bool) bool {
			if now := m.result.Has(t); now != was {
				m.out.Add(was, t)
			}
			return true
		})
		m.touched.Reset()
	} else {
		return nil, nil
	}
	added, removed = m.out.Lend(len(m.query.Head))
	sortTuples(added)
	sortTuples(removed)
	return added, removed
}

// evaluate computes the multiplicities of ϕ(D) by one full evaluation.
func (m *Maintainer) evaluate() *tuplekey.Table[int64] {
	out := tuplekey.NewTable[int64](len(m.query.Head))
	m.ev.CountInto(out, m.db, nil)
	return out
}

// Rebuild recomputes the materialised result with one full evaluation
// over the store — the preprocessing phase, linear+join-cost instead of
// |D| residual-join updates. The owner has checked the store's arities
// against the query, so it cannot fail.
func (m *Maintainer) Rebuild() {
	m.result = nil // unreachable before evaluate, so the peak holds one result table, not two
	m.result = m.evaluate()
	m.rebuildPending = false
	m.emitting = false
	m.touched.Reset()
}

// add moves one head tuple's multiplicity by d, dropping it at zero —
// one probe of the result either way — and records its first-touch
// presence while the batch emits.
//
//dyncq:hot
func (m *Maintainer) add(head []Value, d int64) {
	present := tuplekey.AddCount(m.result, head, d)
	if m.emitting {
		if was, seen := m.touched.Ref(head); !seen {
			*was = present
		}
	}
}

// Count returns |ϕ(D)|: the number of distinct head tuples.
func (m *Maintainer) Count() uint64 { return uint64(m.result.Len()) }

// Answer reports whether ϕ(D) is nonempty.
func (m *Maintainer) Answer() bool { return m.result.Len() > 0 }

// Has reports whether the tuple is in ϕ(D).
func (m *Maintainer) Has(tuple []Value) bool { return m.result.Has(tuple) }

// Multiplicity returns the number of valuations projecting to the tuple
// (0 if absent).
func (m *Maintainer) Multiplicity(tuple []Value) int64 {
	n, _ := m.result.Get(tuple)
	return n
}

// Enumerate calls yield for every tuple in the materialised result until
// yield returns false. Order is unspecified. The slice passed to yield
// follows the uniform contract of pkg/dyncq.Handle.Enumerate: it is
// owned by the callee and only valid during the call — copy it to retain
// it. It is one scratch buffer refilled per tuple, never the result
// table's own storage, so a callee that scribbles on it harms nothing.
func (m *Maintainer) Enumerate(yield func(tuple []Value) bool) {
	buf := make([]Value, len(m.query.Head))
	m.result.Keys(func(t []Value) bool {
		copy(buf, t)
		return yield(buf)
	})
}

// Tuples returns a copy of the materialised result sorted
// lexicographically.
func (m *Maintainer) Tuples() [][]Value {
	out := make([][]Value, 0, m.result.Len())
	m.result.Keys(func(t []Value) bool {
		out = append(out, append([]Value(nil), t...))
		return true
	})
	sortTuples(out)
	return out
}

// sortTuples orders equal-arity tuples lexicographically.
func sortTuples(ts [][]Value) {
	slices.SortFunc(ts, func(a, b []Value) int { return slices.Compare(a, b) })
}
