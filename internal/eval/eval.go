// Package eval is a static (non-incremental) conjunctive query evaluator:
// a backtracking join that probes the store's own indexes
// (dyndb.Database.Index, built on first use), whose bucket for a key is a
// list of the matching stored tuples, walked in place. The join is planned
// once per run: the order of the atoms and, per depth, how its atom is
// reached — a restriction set, a full-tuple membership filter, an index
// bucket or a relation scan — with the index resolved and the positions a
// tuple binds and must agree on fixed, so the per-tuple work is binding,
// comparing and probing only. A join with an atom that can match nothing (an undeclared
// or empty relation, an empty restriction set) is not run at all. It plays
// two roles in this repository:
//
//   - the correctness oracle that the dynamic engine (internal/core) and
//     the IVM baseline (internal/ivm) are tested against, and
//   - the residual-query evaluator inside the IVM baseline's delta rules,
//     via restricted atoms.
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

// Restricted maps an atom index (into q.Atoms) to an explicit tuple set:
// during evaluation that atom matches only the listed tuples instead of
// its full relation. This is the hook the IVM delta rules use: they
// restrict occurrences of an updated relation to the commit's delta
// tuples (a single update is a set of one), so the residual join against
// the base relations runs once per commit instead of once per tuple. The
// listed tuples need not be in the relation — a deletion delta lists
// tuples about to leave it — and tuples of the wrong arity are skipped.
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
	NewEvaluator(q).Run(db, nil, func(head []Value) bool {
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
	NewEvaluator(q).Run(db, nil, func([]Value) bool {
		found = true
		return false
	})
	return found
}

// CountValuations returns, for every head tuple, the number of valuations
// (homomorphisms ϕ → D over all variables) projecting to it, with the
// atoms in restricted ranging only over their listed tuple sets (see
// Restricted), as a fresh table keyed by head tuple.
func CountValuations(q *cq.Query, db *dyndb.Database, restricted Restricted) *tuplekey.Table[int64] {
	out := tuplekey.NewTable[int64](len(q.Head))
	NewEvaluator(q).CountInto(out, db, restricted)
	return out
}

// Evaluator is a query compiled for repeated evaluation: variables are
// resolved to indices once, and everything the backtracking join needs
// while it runs — the assignment, and per join depth the plan and its
// scratch — is allocated up front, so enumerating a valuation allocates
// nothing. Each Run plans once: plan fixes the join order and, per depth,
// how the atom there is reached (its access kind), the store index a
// bucket walk probes, the variables that form the probe, the positions a
// tuple binds and the positions it must agree on. The join itself (step,
// try) only follows that plan. One evaluator serves one goroutine at a
// time.
type Evaluator struct {
	atoms   []catom
	headIdx []int // variable index per head position

	// State of the running call.
	emit    func(head []Value) bool
	stopped bool
	assign  []Value
	head    []Value
	frames  []frame // per join depth
	// filters is the first depth of the plan's trailing run of full-tuple
	// filters (len(frames) if it ends otherwise): step answers them in
	// one loop before emit.
	filters int

	// Planning scratch: per atom whether it is placed, per variable
	// whether an earlier depth binds it.
	planUsed []bool
	bound    []bool

	counts    *tuplekey.Table[int64] // CountInto's target while it runs
	countEmit func(head []Value) bool
}

// access is how a join depth reaches its atom's tuples, fixed by plan.
type access uint8

const (
	accessRestricted access = iota // walk the atom's restriction set
	accessFilter                   // every position bound: one membership probe
	accessBucket                   // some positions bound: walk one index bucket
	accessScan                     // no position bound: walk the relation
)

// frame is the plan and scratch of one join depth.
type frame struct {
	kind  access
	arity int
	rel   *dyndb.Relation // filter, bucket, scan
	ix    *dyndb.Index    // bucket
	set   [][]Value       // restricted
	// probeVars are the already-bound variables at the positions a filter
	// or bucket probes, in position order; probe holds their values.
	probeVars []int
	probe     []Value
	// binds are the positions whose variable this depth binds (the
	// variable's first position in the atom); checks the positions a
	// tuple must agree on with the assignment once binds are applied: a
	// repeat of a variable the same atom binds, or, on a restricted
	// depth only, an earlier depth's variable (a filter's or bucket's
	// probe has matched those already, and a scan has none).
	binds, checks []slot
	// visit tries one tuple at this depth and reports whether the walk
	// should go on; built once, so a walk creates no closure.
	visit func(t []Value) bool
}

// slot pairs an atom position with the variable at it.
type slot struct{ pos, v int }

// catom is an atom compiled for evaluation: argument variables resolved
// to indices, with the running call's relation (nil if undeclared) and
// restriction set.
type catom struct {
	rel         string
	args        []int // variable indices per position
	stored      *dyndb.Relation
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
		assign:   make([]Value, len(vars)),
		head:     make([]Value, len(q.Head)),
		frames:   make([]frame, len(q.Atoms)),
		planUsed: make([]bool, len(q.Atoms)),
		bound:    make([]bool, len(vars)),
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
			probeVars: make([]int, 0, maxArity),
			probe:     make([]Value, 0, maxArity),
			binds:     make([]slot, 0, maxArity),
			checks:    make([]slot, 0, maxArity),
			visit: func(t []Value) bool {
				ev.try(d, t)
				return !ev.stopped
			},
		}
	}
	ev.countEmit = func(head []Value) bool {
		tuplekey.AddCount(ev.counts, head, 1)
		return true
	}
	return ev
}

// CountInto adds to out, for every head tuple, the number of valuations
// projecting to it (see CountValuations); a count that reaches zero
// leaves out. out must be keyed at the head's arity.
func (ev *Evaluator) CountInto(out *tuplekey.Table[int64], db *dyndb.Database, restricted Restricted) {
	ev.counts = out
	ev.Run(db, restricted, ev.countEmit)
	ev.counts = nil
}

// Run enumerates all satisfying valuations of the query over db, with
// restricted atom overrides, calling emit with the head projection of
// each until emit returns false. The head slice passed to
// emit is reused between calls. The plan requests the db indexes the join
// will probe, building the ones missing — unless the join is empty; any
// number of evaluators may run over one db at once while nothing mutates
// it.
func (ev *Evaluator) Run(db *dyndb.Database, restricted Restricted, emit func(head []Value) bool) {
	ev.emit, ev.stopped = emit, false
	for i := range ev.atoms {
		a := &ev.atoms[i]
		a.stored = db.Relation(a.rel)
		a.restrict, a.restrictSet = restricted[i]
	}
	if ev.plan(db) {
		ev.step(0)
	}
	ev.emit = nil
}

// plan fixes the running call's join, greedily: restricted atoms first,
// then repeatedly the atom with the most already-bound variables,
// tie-broken by smaller relation. Each depth's frame records what its
// atom's access needs for the whole call — the kind, the relation, the
// index (requested here, once per call, not per tuple), the probe
// variables and the bind and check positions — so the join never asks
// which variables are bound. If some atom can match nothing — its relation
// undeclared or empty, or its restriction set empty — the join is empty:
// plan reports false before requesting any index, so a join that finds
// nothing does not make the store build and then maintain one.
func (ev *Evaluator) plan(db *dyndb.Database) bool {
	for i := range ev.atoms {
		a := &ev.atoms[i]
		if a.restrictSet && len(a.restrict) == 0 || !a.restrictSet && (a.stored == nil || a.stored.Len() == 0) {
			return false
		}
	}
	clear(ev.planUsed)
	clear(ev.bound)
	for d := range ev.frames {
		best, bestScore, bestSize := -1, -1, 0
		for i := range ev.atoms {
			if ev.planUsed[i] {
				continue
			}
			a := &ev.atoms[i]
			score, size := 0, 0
			if a.restrictSet {
				score = 1 << 19 // restricted: a small delta set, schedule early
				size = len(a.restrict)
			} else {
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
		ev.frames[d].resolve(&ev.atoms[best], ev.bound, db)
	}
	ev.filters = len(ev.frames)
	for ev.filters > 0 && ev.frames[ev.filters-1].kind == accessFilter {
		ev.filters--
	}
	return true
}

// resolve plans frame f for atom a given the variables bound before it,
// and marks a's variables bound.
func (f *frame) resolve(a *catom, bound []bool, db *dyndb.Database) {
	f.arity, f.rel, f.ix, f.set = len(a.args), a.stored, nil, a.restrict
	f.probeVars, f.binds, f.checks = f.probeVars[:0], f.binds[:0], f.checks[:0]
	var mask uint32
	for j, vi := range a.args {
		if bound[vi] {
			mask |= 1 << uint(j)
			f.probeVars = append(f.probeVars, vi)
		}
	}
	f.probe = f.probe[:len(f.probeVars)]
	switch {
	case a.restrictSet:
		f.kind = accessRestricted
	case len(f.probeVars) == len(a.args):
		f.kind = accessFilter
	case mask == 0:
		f.kind = accessScan
	default:
		f.kind = accessBucket
		f.ix = db.Index(a.rel, mask)
	}
	for j, vi := range a.args {
		switch {
		case !bound[vi]:
			f.binds = append(f.binds, slot{j, vi})
			bound[vi] = true
		case mask&(1<<uint(j)) == 0 || f.kind == accessRestricted:
			// bound by an earlier position of this atom, or by an earlier
			// depth on a restricted atom, which has no probe
			f.checks = append(f.checks, slot{j, vi})
		}
	}
}

// step extends the partial valuation by the atom at depth d, following
// the plan: from the trailing filters on, it probes each of them in one
// loop and emits.
//
//dyncq:hot
func (ev *Evaluator) step(d int) {
	if ev.stopped {
		return
	}
	if d >= ev.filters {
		for i := d; i < len(ev.frames); i++ {
			if f := &ev.frames[i]; !f.rel.Has(f.fill(ev.assign)) {
				return
			}
		}
		for i, vi := range ev.headIdx {
			ev.head[i] = ev.assign[vi]
		}
		if !ev.emit(ev.head) {
			ev.stopped = true
		}
		return
	}
	f := &ev.frames[d]
	switch f.kind {
	case accessRestricted:
		for _, t := range f.set {
			if len(t) == f.arity {
				ev.try(d, t)
			}
			if ev.stopped {
				return
			}
		}
	case accessFilter:
		if f.rel.Has(f.fill(ev.assign)) {
			ev.step(d + 1)
		}
	case accessBucket:
		f.ix.Bucket(f.fill(ev.assign)).Each(f.visit)
	case accessScan:
		f.rel.Each(f.visit)
	}
}

// fill writes the probe variables' values into the frame's probe: a
// filter's whole tuple, a bucket's key.
//
//dyncq:hot
func (f *frame) fill(assign []Value) []Value {
	for k, vi := range f.probeVars {
		f.probe[k] = assign[vi]
	}
	return f.probe
}

// try applies the tuple to the atom at depth d: it binds the plan's bind
// positions, then recurses if the tuple agrees on the check positions.
// Binding first is what lets a check compare against a variable the same
// tuple binds (R(x,y,y)); nothing is unbound after, because a variable's
// binding depth is fixed by the plan and deeper depths only read it.
//
//dyncq:hot
func (ev *Evaluator) try(d int, t []Value) {
	f := &ev.frames[d]
	for _, s := range f.binds {
		ev.assign[s.v] = t[s.pos]
	}
	for _, s := range f.checks {
		if ev.assign[s.v] != t[s.pos] {
			return
		}
	}
	ev.step(d + 1)
}
