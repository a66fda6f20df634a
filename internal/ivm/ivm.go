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
// the atoms in S pinned to the updated tuple, evaluated over the post-state
// (insert) or pre-state (delete) — the inclusion–exclusion form of the
// standard delta query, correct under set semantics and self-joins.
//
// The point of this baseline in the reproduction: its update cost is a
// residual join, i.e. Θ(n) or worse for the paper's hard queries
// (ϕS-E-T, ϕE-T, ϕ1), whereas the engine in internal/core achieves O(1) —
// but only for q-hierarchical queries. Theorems 3.3–3.5 say that the gap
// is fundamental, not an artefact of this particular baseline.
//
// A Maintainer reads the store and index set of its owner
// (pkg/dyncq.Workspace) and never writes them; the owner brackets each
// store mutation with the maintainer's delta hooks (see Maintainer).
package ivm

import (
	"fmt"
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
// the store and its eval.IndexSet belong to the owner
// (pkg/dyncq.Workspace), which mutates both exactly once per command no
// matter how many IVM-backed queries are live; the maintainer only reads
// them. Delta processing needs the store in a specific state relative to
// each relation's mutation — deletion deltas are evaluated on the
// pre-state, insertion deltas on the post-state — so the owner drives the
// maintainer through per-relation hooks interleaved with the store
// mutation:
//
//	BeginBatch(survivors, emit)      // crossover decision
//	for each relation of the net delta:
//	    PreDelete(rel, dels)         // store still pre-state here
//	    <owner deletes dels, inserts ins, updates the index>
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
	idx   *eval.IndexSet
	// result maps encoded head tuples to their valuation multiplicity.
	result map[string]int64
	// occ maps relation names to the indices of atoms over them.
	occ    map[string][]int
	schema map[string]int
	// rebuildPending is set by BeginBatch when the batch is large enough
	// that one full re-evaluation beats per-relation delta joins; the
	// delta hooks then no-op and FinishBatch rebuilds.
	rebuildPending bool
	// touched is non-nil while the open batch emits its result delta: for
	// every head tuple a delta join reached, whether it was in the result
	// when the batch first touched it. FinishBatch compares that with the
	// final state. A running zero-crossing test would be wrong:
	// inclusion–exclusion takes a multiplicity through transient zeros.
	touched map[string]bool
}

// New returns a maintainer for q reading the given store through idx
// (which must be over store). Any valid CQ is accepted. The maintainer
// starts with an empty materialised result: if store is already
// non-empty, call Rebuild to evaluate over it.
func New(q *cq.Query, store *dyndb.Database, idx *eval.IndexSet) (*Maintainer, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("ivm.New: %w", err)
	}
	m := &Maintainer{
		query:  q,
		db:     store,
		idx:    idx,
		result: make(map[string]int64),
		occ:    make(map[string][]int),
		schema: q.Schema(),
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
	if emit {
		m.touched = make(map[string]bool)
	}
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
// into the store (and its index).
func (m *Maintainer) PostInsert(rel string, tuples [][]Value) { m.propagate(rel, tuples, +1) }

func (m *Maintainer) propagate(rel string, tuples [][]Value, sign int64) {
	occs := m.occ[rel]
	if m.rebuildPending || len(tuples) == 0 || len(occs) == 0 {
		return
	}
	if len(tuples) == 1 {
		// Single-tuple deltas take the pinned-atom path: substituting the
		// constants beats scanning a restriction set of size one.
		m.applyDelta(occs, tuples[0], sign)
		return
	}
	m.applyDeltaSet(occs, tuples, sign)
}

// FinishBatch closes the batch opened by BeginBatch: if the crossover
// chose a rebuild, the materialised result is recomputed with one full
// evaluation over the (now post-state) store. If the batch emits, it
// returns the tuples ϕ(D) gained and lost, disjoint, each side in
// lexicographic order: the touched keys whose presence changed, or — on
// the rebuild path, which only a batch of a third of the store takes —
// the difference of the old and new materialisations.
func (m *Maintainer) FinishBatch() (added, removed [][]Value) {
	touched := m.touched
	m.touched = nil
	var gained, lost []string
	if m.rebuildPending {
		m.rebuildPending = false
		old := m.result
		m.result = eval.CountValuations(m.query, m.db, nil, m.idx)
		if touched == nil {
			return nil, nil
		}
		for k := range old {
			if _, now := m.result[k]; !now {
				lost = append(lost, k)
			}
		}
		for k := range m.result {
			if _, was := old[k]; !was {
				gained = append(gained, k)
			}
		}
	} else {
		for k, was := range touched {
			if _, now := m.result[k]; now && !was {
				gained = append(gained, k)
			} else if was && !now {
				lost = append(lost, k)
			}
		}
	}
	return decodeSorted(gained), decodeSorted(lost)
}

// decodeSorted turns head-tuple keys into tuples in lexicographic order.
func decodeSorted(keys []string) [][]Value {
	if len(keys) == 0 {
		return nil
	}
	out := make([][]Value, len(keys))
	for i, k := range keys {
		out[i] = tuplekey.Decode(k) //dyncq:allow decodeboundary the delta is handed to the caller, one decode per delivered tuple — the same boundary as Enumerate
	}
	sortTuples(out)
	return out
}

// Rebuild rebinds the maintainer to idx (the owner recreates the index
// set when it replaces the store's contents) and recomputes the
// materialised result with one full evaluation over the store — the
// preprocessing phase, linear+join-cost instead of |D| residual-join
// updates. A schema clash (a store relation whose arity contradicts the
// query) fails with the result cleared.
func (m *Maintainer) Rebuild(idx *eval.IndexSet) error {
	m.Clear(idx)
	for _, rel := range m.db.Relations() {
		if want, ok := m.schema[rel]; ok && want != m.db.Relation(rel).Arity() {
			return fmt.Errorf("ivm: %s has arity %d in query, %d in the store", rel, want, m.db.Relation(rel).Arity())
		}
	}
	m.result = eval.CountValuations(m.query, m.db, nil, m.idx)
	return nil
}

// Clear discards the materialised result and rebinds to idx, leaving the
// maintainer representing the empty database.
func (m *Maintainer) Clear(idx *eval.IndexSet) {
	m.idx = idx
	m.result = make(map[string]int64)
	m.rebuildPending = false
	m.touched = nil
}

// applyDelta adds sign × (number of valuations using the tuple in at
// least one occurrence) to the multiplicities, via inclusion–exclusion
// over nonempty occurrence subsets.
func (m *Maintainer) applyDelta(occs []int, tuple []Value, sign int64) {
	n := len(occs)
	for mask := 1; mask < 1<<uint(n); mask++ {
		pinned := eval.Pinned{}
		bits := 0
		for b := 0; b < n; b++ {
			if mask&(1<<uint(b)) != 0 {
				pinned[occs[b]] = tuple
				bits++
			}
		}
		coef := sign
		if bits%2 == 0 {
			coef = -sign
		}
		for k, c := range eval.CountValuations(m.query, m.db, pinned, m.idx) {
			m.add(k, coef*c)
		}
	}
}

// add moves one head tuple's multiplicity by d, dropping it at zero, and
// records its first-touch presence while the batch emits.
func (m *Maintainer) add(k string, d int64) {
	old := m.result[k]
	if m.touched != nil {
		if _, seen := m.touched[k]; !seen {
			m.touched[k] = old != 0
		}
	}
	if nv := old + d; nv == 0 {
		delete(m.result, k)
	} else {
		m.result[k] = nv
	}
}

// applyDeltaSet is the batch analogue of applyDelta: it adds sign × (the
// number of valuations using at least one of the given tuples in at least
// one occurrence) to the multiplicities, via inclusion–exclusion over
// nonempty occurrence subsets with the subset's atoms restricted to the
// whole tuple set. All tuples must share the delta's direction (all
// inserted, evaluated post-state, or all deleted, evaluated pre-state).
func (m *Maintainer) applyDeltaSet(occs []int, tuples [][]Value, sign int64) {
	if len(occs) == 0 || len(tuples) == 0 {
		return
	}
	n := len(occs)
	for mask := 1; mask < 1<<uint(n); mask++ {
		restricted := eval.Restricted{}
		bits := 0
		for b := 0; b < n; b++ {
			if mask&(1<<uint(b)) != 0 {
				restricted[occs[b]] = tuples
				bits++
			}
		}
		coef := sign
		if bits%2 == 0 {
			coef = -sign
		}
		for k, c := range eval.CountValuationsRestricted(m.query, m.db, nil, restricted, m.idx) {
			m.add(k, coef*c)
		}
	}
}

// Count returns |ϕ(D)|: the number of distinct head tuples.
func (m *Maintainer) Count() uint64 { return uint64(len(m.result)) }

// Answer reports whether ϕ(D) is nonempty.
func (m *Maintainer) Answer() bool { return len(m.result) > 0 }

// Has reports whether the tuple is in ϕ(D).
func (m *Maintainer) Has(tuple []Value) bool {
	_, ok := m.result[tuplekey.String(tuple)]
	return ok
}

// Multiplicity returns the number of valuations projecting to the tuple
// (0 if absent).
func (m *Maintainer) Multiplicity(tuple []Value) int64 {
	return m.result[tuplekey.String(tuple)]
}

// Enumerate calls yield for every tuple in the materialised result until
// yield returns false. Order is unspecified. The slice passed to yield
// follows the uniform contract of pkg/dyncq.Handle.Enumerate: it is
// owned by the callee and only valid during the call — copy it to retain
// it. (This backend happens to decode a fresh slice per tuple today, but
// callers must not rely on that.)
func (m *Maintainer) Enumerate(yield func(tuple []Value) bool) {
	for k := range m.result {
		if !yield(tuplekey.Decode(k)) {
			return
		}
	}
}

// Tuples returns the materialised result sorted lexicographically.
func (m *Maintainer) Tuples() [][]Value {
	out := make([][]Value, 0, len(m.result))
	for k := range m.result {
		out = append(out, tuplekey.Decode(k))
	}
	sortTuples(out)
	return out
}

// sortTuples orders equal-arity tuples lexicographically.
func sortTuples(ts [][]Value) {
	slices.SortFunc(ts, func(a, b []Value) int { return slices.Compare(a, b) })
}
