// Package eval is a static (non-incremental) conjunctive query evaluator:
// a backtracking join with lazily built hash indexes. It plays two roles
// in this repository:
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
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
// valuations satisfying the body.
func Evaluate(q *cq.Query, db *dyndb.Database) *Result {
	res := &Result{set: tuplekey.NewTable[struct{}](len(q.Head))}
	NewEvaluator(q).Run(db, nil, nil, nil, func(head []Value) bool {
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
	NewEvaluator(q).Run(db, nil, nil, nil, func([]Value) bool {
		found = true
		return false
	})
	return found
}

// CountValuations returns, for every head tuple, the number of valuations
// (homomorphisms ϕ → D over all variables) projecting to it, honouring
// pinned atoms, as a fresh table keyed by head tuple. If idx is non-nil
// its indexes are used and extended; otherwise a transient index set over
// db is built.
func CountValuations(q *cq.Query, db *dyndb.Database, pinned Pinned, idx *IndexSet) *tuplekey.Table[int64] {
	return CountValuationsRestricted(q, db, pinned, nil, idx)
}

// CountValuationsRestricted is CountValuations with additional restricted
// atoms: atoms in restricted range only over their listed tuple sets (see
// Restricted). Pinning and restricting the same atom is a programming
// error; the pin wins.
func CountValuationsRestricted(q *cq.Query, db *dyndb.Database, pinned Pinned, restricted Restricted, idx *IndexSet) *tuplekey.Table[int64] {
	out := tuplekey.NewTable[int64](len(q.Head))
	NewEvaluator(q).CountInto(out, db, pinned, restricted, idx)
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
	idx     *IndexSet
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
func (ev *Evaluator) CountInto(out *tuplekey.Table[int64], db *dyndb.Database, pinned Pinned, restricted Restricted, idx *IndexSet) {
	ev.counts = out
	ev.Run(db, pinned, restricted, idx, ev.countEmit)
	ev.counts = nil
}

// Run enumerates all satisfying valuations of the query over db, with
// pinned and restricted atom overrides, calling emit with the head
// projection of each until emit returns false. The head slice passed to
// emit is reused between calls. A nil idx means a transient index set.
func (ev *Evaluator) Run(db *dyndb.Database, pinned Pinned, restricted Restricted, idx *IndexSet, emit func(head []Value) bool) {
	if idx == nil {
		idx = NewIndexSet(db)
	} else if idx.db != db {
		panic("eval: IndexSet belongs to a different database")
	}
	ev.idx, ev.emit, ev.stopped = idx, emit, false
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
	ev.idx, ev.emit = nil, nil
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
		if b := ev.idx.Get(a.rel, mask).bucket(probe); b != nil {
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

// IndexSet is a collection of hash indexes over a database's relations,
// keyed by (relation, bound-position mask). Indexes are built lazily on
// first use and maintained incrementally under updates, which is how the
// IVM baseline keeps its residual joins fast without rescanning.
//
// The set records the store epoch (dyndb.Database.Epoch) it is
// synchronised to: every ApplyUpdate/ApplyDelta call advances the
// recorded epoch in lockstep with the store's own counter, so as long
// as the owner notifies the set of every mutation, built indexes stay
// warm indefinitely — across IVM batches and (via Reload) across Loads
// of overlapping databases. If the store moved without notification
// (direct writes, a Clear the owner chose not to diff), the next Get
// detects the epoch mismatch and falls back to dropping every index;
// they are then rebuilt lazily by relation scans, exactly as on first
// use. Incremental maintenance is an optimisation with a rebuild safety
// net, never a correctness risk. Rebuilds() counts how often that
// fallback fired with built indexes to drop, so silent store movement is
// observable in production instead of showing up only as latency.
//
// Concurrency contract: Get and the other read entry points (Epoch,
// Synced, Built, Rebuilds, IndexedRelations, SanityCheck) are safe to
// call from any number of goroutines concurrently with each other,
// PROVIDED the underlying store is quiescent — evaluators sharing the
// set may race on lazy builds and the epoch-sync fallback, which the
// internal lock serialises. The maintenance entry points (ApplyUpdate,
// ApplyDelta, Reload) require exclusive access relative to the store
// mutation they mirror: the owner must not run them concurrently with
// evaluation, which is exactly the phase discipline of the workspace
// layer (hooks and fan-out never overlap the store phase).
type IndexSet struct {
	db *dyndb.Database

	// mu guards idx, epoch and rebuilds. Concurrent evaluators hold the
	// read lock on the Get fast path; lazy builds, the epoch-sync
	// fallback and the maintenance entry points hold the write lock.
	// Published *Index values are mutated only under the write lock, so a
	// pointer returned by Get stays internally consistent for every
	// concurrent reader until the next maintenance call.
	mu       sync.RWMutex
	idx      map[indexKey]*Index
	epoch    uint64 // store epoch the indexes reflect
	rebuilds uint64 // epoch-mismatch fallbacks that dropped built indexes
}

type indexKey struct {
	rel  string
	mask uint32
}

// Index maps the projection of tuples onto the mask's positions to the
// set of matching tuples. Both levels are tuplekey.Tables keyed by the
// int64 tuples themselves: the outer one by the projection, each bucket by
// the whole tuple, stored once, inline — membership, O(1) removal and
// iteration all come from that one table. The probe path (bucket) performs
// no encoding and no allocation.
type Index struct {
	mask    uint32
	buckets *tuplekey.Table[*tuplekey.Table[struct{}]] // projected tuple → its tuples
	scratch []Value                                    // projection scratch, mutators only
}

func newIndex(mask uint32) *Index {
	return &Index{mask: mask, buckets: tuplekey.NewTable[*tuplekey.Table[struct{}]](bits.OnesCount32(mask))}
}

// NewIndexSet returns an empty index set over db, synchronised to its
// current epoch.
func NewIndexSet(db *dyndb.Database) *IndexSet {
	return &IndexSet{db: db, idx: make(map[indexKey]*Index), epoch: db.Epoch()}
}

// Epoch returns the store epoch the indexes reflect.
func (s *IndexSet) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Synced reports whether the set is up to date with its store: false
// means the next Get will take the rebuild fallback.
func (s *IndexSet) Synced() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch == s.db.Epoch()
}

// Built returns the number of built indexes. Owners use it to skip
// computing an incremental reconciliation no index would benefit from.
func (s *IndexSet) Built() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.idx)
}

// Rebuilds returns how many times the epoch-sync fallback dropped built
// indexes because the store moved without notification. In steady state
// (an owner that reports every mutation) it stays zero; a nonzero value
// means some store movement bypassed the maintenance entry points and
// indexes were silently rebuilt by relation scans.
func (s *IndexSet) Rebuilds() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rebuilds
}

// IndexedRelations returns the set of relations with at least one built
// index. A reconciliation diff (Reload) only needs to cover these:
// commands on any other relation are dropped by the maintenance loop
// anyway.
func (s *IndexSet) IndexedRelations() map[string]bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]bool, len(s.idx))
	for k := range s.idx { //dyncq:allow determinism builds an order-free set, iteration order cannot leak
		out[k.rel] = true
	}
	return out
}

// syncLocked is the rebuild fallback: if the store moved without
// notifying the set, every index is dropped (to be rebuilt lazily) and
// the epoch resynchronised. Caller holds the write lock.
func (s *IndexSet) syncLocked() {
	cur := s.db.Epoch()
	if s.epoch == cur {
		return
	}
	if len(s.idx) > 0 {
		s.idx = make(map[indexKey]*Index)
		s.rebuilds++
	}
	s.epoch = cur
}

// Get returns the index for (rel, mask), building it by a relation scan if
// it does not exist yet. A store that moved without notification first
// invalidates every index (see IndexSet). Safe for concurrent use by any
// number of evaluators while the store is quiescent: the common case (set
// synced, index built) takes only the read lock.
func (s *IndexSet) Get(rel string, mask uint32) *Index {
	k := indexKey{rel, mask}
	storeEpoch := s.db.Epoch()
	s.mu.RLock()
	if s.epoch == storeEpoch {
		if ix, ok := s.idx[k]; ok {
			s.mu.RUnlock()
			return ix
		}
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncLocked()
	if ix, ok := s.idx[k]; ok {
		return ix
	}
	ix := newIndex(mask)
	if r := s.db.Relation(rel); r != nil {
		r.Each(func(t []Value) bool {
			ix.add(t)
			return true
		})
	}
	s.idx[k] = ix
	return ix
}

// ApplyUpdate maintains all existing indexes on u.Rel for one command
// that changed the database. Call it after the store applied the
// command, exactly once per store-changing command, so the set's epoch
// advances in lockstep with the store's.
func (s *IndexSet) ApplyUpdate(u dyndb.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	s.applyOne(u)
}

//dyncq:hot
func (s *IndexSet) applyOne(u dyndb.Update) {
	for k, ix := range s.idx { //dyncq:allow determinism per-index maintenance is independent, any visit order yields the same indexes
		if k.rel != u.Rel {
			continue
		}
		if u.Op == dyndb.OpInsert {
			ix.add(u.Tuple)
		} else {
			ix.remove(u.Tuple)
		}
	}
}

// ApplyDelta maintains all existing indexes under a net delta the store
// already applied (each command having changed the database — e.g. the
// survivors handed to dyndb.ApplyNetDelta). The epoch advances by the
// delta length, staying in lockstep with the store.
func (s *IndexSet) ApplyDelta(survivors []dyndb.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch += uint64(len(survivors))
	if len(s.idx) == 0 {
		return
	}
	for _, u := range survivors {
		s.applyOne(u)
	}
}

// Reload reconciles the set with a store whose contents were wholesale
// replaced (Clear + CopyFrom): diff must be a net delta transforming the
// pre-replacement contents into the current ones. Existing indexes are
// patched tuple by tuple — the incremental alternative to the rebuild
// fallback a bare Clear would trigger — and the epoch resynchronises to
// the store's current value. With no built indexes it only resyncs.
func (s *IndexSet) Reload(diff []dyndb.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.idx) > 0 {
		for _, u := range diff {
			s.applyOne(u)
		}
	}
	s.epoch = s.db.Epoch()
}

// proj writes the masked positions of t into the index's scratch slice
// and returns it. Mutators only (add/remove run under the owning set's
// write lock); the concurrent read path (bucket) never touches scratch.
//
//dyncq:hot
func (ix *Index) proj(t []Value) []Value {
	p := ix.scratch[:0]
	for j := range t {
		if ix.mask&(1<<uint(j)) != 0 {
			p = append(p, t[j])
		}
	}
	ix.scratch = p
	return p
}

//dyncq:hot
func (ix *Index) add(t []Value) {
	b, existed := ix.buckets.Ref(ix.proj(t))
	if !existed {
		*b = tuplekey.NewTable[struct{}](len(t)) //dyncq:allow hotalloc first tuple of a projection only
	}
	(*b).Ref(t)
}

//dyncq:hot
func (ix *Index) remove(t []Value) {
	p := ix.proj(t)
	if b, ok := ix.buckets.Get(p); ok && b.Delete(t) && b.Len() == 0 {
		ix.buckets.Delete(p)
	}
}

// bucket returns the set of tuples whose masked positions equal boundVals
// (in mask position order), nil if there are none. The table is owned by
// the index and valid until its next mutation; callers only read it (Keys
// yields slices aliasing it). No allocation and no key encoding happen on
// this path.
//
//dyncq:hot
func (ix *Index) bucket(boundVals []Value) *tuplekey.Table[struct{}] {
	b, _ := ix.buckets.Get(boundVals)
	return b
}

// SanityCheck verifies that the index set is consistent with its database
// (every indexed tuple present and filed under its own projection, every
// relation tuple indexed, no empty bucket kept). Intended for tests; cost
// is linear in the database and indexes.
func (s *IndexSet) SanityCheck() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, ix := range s.idx { //dyncq:allow determinism test-only diagnostic; which violation is reported first may vary, presence does not
		count := 0
		var err error
		ix.buckets.Range(func(p []Value, b *tuplekey.Table[struct{}]) bool {
			if b.Len() == 0 {
				err = fmt.Errorf("index (%s,%b) keeps an empty bucket for %v", k.rel, k.mask, p)
				return false
			}
			return b.Keys(func(t []Value) bool {
				count++
				if !s.db.Has(k.rel, t...) {
					err = fmt.Errorf("index (%s,%b) holds stale tuple %v", k.rel, k.mask, t)
				} else if !projectsTo(t, ix.mask, p) {
					err = fmt.Errorf("index (%s,%b) files %v under %v", k.rel, k.mask, t, p)
				}
				return err == nil
			})
		})
		if err != nil {
			return err
		}
		r := s.db.Relation(k.rel)
		want := 0
		if r != nil {
			want = r.Len()
		}
		if count != want {
			return fmt.Errorf("index (%s,%b) has %d tuples, relation has %d", k.rel, k.mask, count, want)
		}
	}
	return nil
}

// projectsTo reports whether t's masked positions spell p.
func projectsTo(t []Value, mask uint32, p []Value) bool {
	i := 0
	for j, v := range t {
		if mask&(1<<uint(j)) == 0 {
			continue
		}
		if i == len(p) || p[i] != v {
			return false
		}
		i++
	}
	return i == len(p)
}
