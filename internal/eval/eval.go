// Package eval is a static (non-incremental) conjunctive query evaluator:
// a backtracking join that probes the store's own hash indexes
// (dyndb.Database.Index, built on first use). It plays two roles in this
// repository:
//
//   - the correctness oracle that the dynamic engine (internal/core) and
//     the IVM baseline (internal/ivm) are tested against, and
//   - the residual-query evaluator inside the IVM baseline's delta rules,
//     via pinned atoms.
//
// Evaluation is exponential in the query size in the worst case (CQ
// evaluation is NP-hard in combined complexity); queries are fixed and
// small (data complexity), matching the paper's cost model.
package eval

import (
	"slices"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/tuplekey"
)

// Value is a database constant.
type Value = dyndb.Value

// Pinned maps an atom index (into q.Atoms) to a fixed tuple: during
// evaluation that atom matches only the given tuple instead of its
// relation. This is the hook the IVM delta rules use to force occurrences
// of an updated relation onto the updated tuple.
type Pinned map[int][]Value

// Restricted maps an atom index (into q.Atoms) to an explicit tuple set:
// during evaluation that atom matches only the listed tuples instead of
// its full relation. This is the batch analogue of Pinned — the IVM
// batched delta rules restrict occurrences of an updated relation to the
// batch's delta tuples, so the residual join against the base relations
// runs once per batch instead of once per tuple. Callers guarantee the
// listed tuples belong to the database state being evaluated; tuples of
// the wrong arity are skipped, matching Pinned.
type Restricted map[int][][]Value

// Result is a set of distinct head tuples.
type Result struct {
	set *tuplekey.Table[struct{}]
}

// Len returns the number of distinct tuples — the paper's |ϕ(D)|.
func (r *Result) Len() int { return r.set.Len() }

// Has reports whether the tuple is in the result.
func (r *Result) Has(tuple []Value) bool { return r.set.Has(tuple) }

// Tuples returns a copy of the result tuples, sorted lexicographically.
func (r *Result) Tuples() [][]Value {
	out := make([][]Value, 0, r.set.Len())
	r.set.Keys(func(t []Value) bool {
		out = append(out, append([]Value(nil), t...))
		return true
	})
	slices.SortFunc(out, slices.Compare[[]Value])
	return out
}

// Each calls fn for every tuple until fn returns false, in no specified
// order. The slice passed to fn aliases the result's storage: read it
// during the call, copy it to retain it.
func (r *Result) Each(fn func(tuple []Value) bool) { r.set.Keys(fn) }

// Evaluate computes ϕ(D): the set of distinct head projections of all
// valuations satisfying the body. The indexes the join builds stay on db,
// maintained by its mutators (see dyndb.Database.Index).
func Evaluate(q *cq.Query, db *dyndb.Database) *Result {
	res := &Result{set: tuplekey.NewTable[struct{}](len(q.Head))}
	NewEvaluator(q).Run(db, nil, nil, func(head []Value) bool {
		res.set.Ref(head)
		return true
	})
	return res
}

// Count returns |ϕ(D)| (number of distinct head tuples).
func Count(q *cq.Query, db *dyndb.Database) int {
	return Evaluate(q, db).Len()
}

// Answer reports whether ϕ(D) is nonempty, stopping at the first
// satisfying valuation.
func Answer(q *cq.Query, db *dyndb.Database) bool {
	found := false
	NewEvaluator(q).Run(db, nil, nil, func([]Value) bool {
		found = true
		return false
	})
	return found
}

// CountValuations returns, for every head tuple, the number of valuations
// (homomorphisms ϕ → D over all variables) projecting to it, honouring
// pinned atoms, as a fresh table keyed by head tuple.
func CountValuations(q *cq.Query, db *dyndb.Database, pinned Pinned) *tuplekey.Table[int64] {
	return CountValuationsRestricted(q, db, pinned, nil)
}

// CountValuationsRestricted is CountValuations with additional restricted
// atoms: atoms in restricted range only over their listed tuple sets (see
// Restricted). Pinning and restricting the same atom is a programming
// error; the pin wins.
func CountValuationsRestricted(q *cq.Query, db *dyndb.Database, pinned Pinned, restricted Restricted) *tuplekey.Table[int64] {
	out := tuplekey.NewTable[int64](len(q.Head))
	NewEvaluator(q).CountInto(out, db, pinned, restricted)
	return out
}

// Evaluator is a query compiled for repeated evaluation: variables are
// resolved to indices once, and everything the backtracking join needs
// while it runs — the assignment, and per join depth the list of variables
// a tuple bound, the probe tuple and the visitor the scans call — is
// allocated up front, so enumerating a valuation allocates nothing. One
// evaluator serves one goroutine at a time.
type Evaluator struct {
	atoms   []catom
	headIdx []int // variable index per head position

	// State of the running call.
	db      *dyndb.Database
	emit    func(head []Value) bool
	stopped bool
	order   []int // atom joined at each depth
	assign  []Value
	bound   []bool
	head    []Value
	frames  []frame // per join depth

	planUsed []bool // per atom, planning scratch

	counts    *tuplekey.Table[int64] // CountInto's target while it runs
	countEmit func(head []Value) bool
}

// frame is the scratch of one join depth.
type frame struct {
	a          *catom
	newlyBound []int   // variables the tuple under trial bound
	probe      []Value // bound values of a's positions, in position order
	// visit tries one tuple at this depth and reports whether the scan
	// should go on; built once, so a scan creates no closure.
	visit func(t []Value) bool
}

// catom is an atom compiled for evaluation: argument variables resolved
// to indices, with the running call's relation (nil if undeclared) and
// pinned tuple or restriction set.
type catom struct {
	rel         string
	args        []int // variable indices per position
	stored      *dyndb.Relation
	pinTo       []Value
	pinSet      bool
	restrict    [][]Value
	restrictSet bool
}

// NewEvaluator compiles q.
func NewEvaluator(q *cq.Query) *Evaluator {
	vars := q.Vars()
	varIdx := make(map[string]int, len(vars))
	for i, v := range vars {
		varIdx[v] = i
	}
	ev := &Evaluator{
		atoms:    make([]catom, len(q.Atoms)),
		headIdx:  make([]int, len(q.Head)),
		order:    make([]int, 0, len(q.Atoms)),
		assign:   make([]Value, len(vars)),
		bound:    make([]bool, len(vars)),
		head:     make([]Value, len(q.Head)),
		frames:   make([]frame, len(q.Atoms)),
		planUsed: make([]bool, len(q.Atoms)),
	}
	maxArity := 0
	for i, a := range q.Atoms {
		args := make([]int, len(a.Args))
		for j, v := range a.Args {
			args[j] = varIdx[v]
		}
		ev.atoms[i] = catom{rel: a.Rel, args: args}
		maxArity = max(maxArity, len(args))
	}
	for i, h := range q.Head {
		ev.headIdx[i] = varIdx[h]
	}
	for d := range ev.frames {
		ev.frames[d] = frame{
			newlyBound: make([]int, 0, maxArity),
			probe:      make([]Value, 0, maxArity),
			visit: func(t []Value) bool {
				ev.try(d, t)
				return !ev.stopped
			},
		}
	}
	ev.countEmit = func(head []Value) bool {
		n, _ := ev.counts.Ref(head)
		*n++
		return true
	}
	return ev
}

// CountInto adds to out, for every head tuple, the number of valuations
// projecting to it (see CountValuationsRestricted). out must be keyed at
// the head's arity.
func (ev *Evaluator) CountInto(out *tuplekey.Table[int64], db *dyndb.Database, pinned Pinned, restricted Restricted) {
	ev.counts = out
	ev.Run(db, pinned, restricted, ev.countEmit)
	ev.counts = nil
}

// Run enumerates all satisfying valuations of the query over db, with
// pinned and restricted atom overrides, calling emit with the head
// projection of each until emit returns false. The head slice passed to
// emit is reused between calls. Joins probe db's indexes, building the
// ones they need on first use; any number of evaluators may run over one
// db at once while nothing mutates it.
func (ev *Evaluator) Run(db *dyndb.Database, pinned Pinned, restricted Restricted, emit func(head []Value) bool) {
	ev.db, ev.emit, ev.stopped = db, emit, false
	for i := range ev.atoms {
		a := &ev.atoms[i]
		a.stored = db.Relation(a.rel)
		a.pinTo, a.pinSet = pinned[i]
		a.restrict, a.restrictSet = nil, false
		if !a.pinSet {
			a.restrict, a.restrictSet = restricted[i]
		}
	}
	ev.plan()
	clear(ev.bound)
	ev.step(0)
	ev.db, ev.emit = nil, nil
}

// plan fixes the running call's join order, greedily: pinned atoms first,
// then restricted ones, then repeatedly the atom with the most
// already-bound variables, tie-broken by smaller relation. ev.bound
// doubles as the set of variables bound so far.
func (ev *Evaluator) plan() {
	clear(ev.planUsed)
	clear(ev.bound)
	ev.order = ev.order[:0]
	for range ev.atoms {
		best, bestScore, bestSize := -1, -1, 0
		for i := range ev.atoms {
			if ev.planUsed[i] {
				continue
			}
			a := &ev.atoms[i]
			score, size := 0, 0
			switch {
			case a.pinSet:
				score = 1 << 20 // pinned: essentially free, schedule first
			case a.restrictSet:
				score = 1 << 19 // restricted: a small delta set, schedule early
				size = len(a.restrict)
			}
			if !a.restrictSet && a.stored != nil {
				size = a.stored.Len()
			}
			for _, vi := range a.args {
				if ev.bound[vi] {
					score++
				}
			}
			if best == -1 || score > bestScore || (score == bestScore && size < bestSize) {
				best, bestScore, bestSize = i, score, size
			}
		}
		ev.planUsed[best] = true
		ev.frames[len(ev.order)].a = &ev.atoms[best]
		ev.order = append(ev.order, best)
		for _, vi := range ev.atoms[best].args {
			ev.bound[vi] = true
		}
	}
}

// step extends the partial valuation by the atom at depth d.
//
//dyncq:hot
func (ev *Evaluator) step(d int) {
	if ev.stopped {
		return
	}
	if d == len(ev.order) {
		for i, vi := range ev.headIdx {
			ev.head[i] = ev.assign[vi]
		}
		if !ev.emit(ev.head) {
			ev.stopped = true
		}
		return
	}
	f := &ev.frames[d]
	a := f.a
	if a.pinSet {
		if len(a.pinTo) == len(a.args) {
			ev.try(d, a.pinTo)
		}
		return
	}
	if a.restrictSet {
		for _, t := range a.restrict {
			if len(t) == len(a.args) {
				ev.try(d, t)
			}
			if ev.stopped {
				return
			}
		}
		return
	}
	rel := a.stored
	if rel == nil {
		return // undeclared relation: no matches
	}
	var mask uint32
	probe := f.probe[:0]
	for j, vi := range a.args {
		if ev.bound[vi] {
			mask |= 1 << uint(j)
			probe = append(probe, ev.assign[vi])
		}
	}
	switch {
	case len(probe) == len(a.args): // every position bound: probe is the tuple
		if rel.Has(probe) {
			ev.step(d + 1)
		}
	case mask == 0:
		rel.Each(f.visit)
	default:
		if b := ev.db.Index(a.rel, mask).Bucket(probe); b != nil {
			b.Keys(f.visit)
		}
	}
}

// try binds the unbound variables of the atom at depth d to the tuple,
// recurses if the bound ones agree with it, then unbinds.
//
//dyncq:hot
func (ev *Evaluator) try(d int, t []Value) {
	f := &ev.frames[d]
	newlyBound := f.newlyBound[:0]
	ok := true
	for j, vi := range f.a.args {
		if ev.bound[vi] {
			if ev.assign[vi] != t[j] {
				ok = false
				break
			}
		} else {
			ev.assign[vi] = t[j]
			ev.bound[vi] = true
			newlyBound = append(newlyBound, vi)
		}
	}
	if ok {
		ev.step(d + 1)
	}
	for _, vi := range newlyBound {
		ev.bound[vi] = false
	}
}
