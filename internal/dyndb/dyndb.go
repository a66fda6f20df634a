// Package dyndb implements the fully dynamic relational databases of
// Section 2 of the paper: finite relations over the domain dom = int64
// under set semantics, modified by single-tuple insert and delete
// commands. Every relation is one hash table of inline tuples, so a
// command costs the store one hash probe; the store counts its tuples
// (|D|) and the mutations it has applied, and nothing else. The paper's
// q-hierarchical bounds are stated in the query alone, so the store does
// not track which values occur in it.
//
// A database also owns the hash indexes evaluators join through (Index):
// built on first use and maintained by every mutator, so an index always
// mirrors the tuples it was built on — no caller can mutate the store
// without the indexes seeing it.
package dyndb

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"dyncq/internal/tuplekey"
)

// Value is a database constant. The paper takes dom = N_{>=1}; any int64
// works here, with 0 conventionally unused (dictionary encoding in package
// dict starts at 1).
type Value = int64

// Op distinguishes the two update commands.
type Op uint8

const (
	// OpInsert is the paper's "insert R(a1,…,ar)" command.
	OpInsert Op = iota
	// OpDelete is the paper's "delete R(a1,…,ar)" command.
	OpDelete
)

func (o Op) String() string {
	if o == OpInsert {
		return "insert"
	}
	return "delete"
}

// Update is a single update command.
type Update struct {
	Op    Op
	Rel   string
	Tuple []Value
}

func (u Update) String() string {
	return fmt.Sprintf("%s %s%v", u.Op, u.Rel, u.Tuple)
}

// Insert returns an insertion command for the given tuple.
func Insert(rel string, tuple ...Value) Update {
	return Update{Op: OpInsert, Rel: rel, Tuple: tuple}
}

// Delete returns a deletion command for the given tuple.
func Delete(rel string, tuple ...Value) Update {
	return Update{Op: OpDelete, Rel: rel, Tuple: tuple}
}

// Relation is a finite set of tuples of a fixed arity, kept inline in
// one flat array at stride arity (tuplekey.Table): a stored tuple is
// 8·arity bytes, not a heap object.
type Relation struct {
	arity  int
	tuples *tuplekey.Table[struct{}]
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns |R^D|.
func (r *Relation) Len() int { return r.tuples.Len() }

// Has reports whether the tuple is present.
func (r *Relation) Has(tuple []Value) bool { return r.tuples.Has(tuple) }

// Each calls fn for every tuple until fn returns false. The tuple slice
// passed to fn aliases the relation's storage: it must not be mutated, and
// it is dead after the relation's next mutation — copy it to retain it.
// The relation must not be modified during iteration.
func (r *Relation) Each(fn func(tuple []Value) bool) { r.tuples.Keys(fn) }

// Tuples returns a copy of all tuples, sorted lexicographically
// (deterministic for tests and display). The result is the caller's: it
// shares nothing with the relation and survives later mutations.
func (r *Relation) Tuples() [][]Value {
	n := r.Len()
	flat := make([]Value, 0, n*r.arity)
	out := make([][]Value, 0, n)
	r.Each(func(t []Value) bool {
		flat = append(flat, t...)
		out = append(out, flat[len(flat)-r.arity:len(flat):len(flat)])
		return true
	})
	sort.Slice(out, func(i, j int) bool { return lessTuple(out[i], out[j]) })
	return out
}

func lessTuple(a, b []Value) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Database is a σ-db: a set of named relations, one tuple table each,
// plus the hash indexes built on them. The zero value is not ready; use
// New.
type Database struct {
	rels map[string]*Relation
	card int // |D|: total number of tuples
	// muts counts successful mutations (inserts + deletes that changed the
	// database) over the store's lifetime — the quantity the workspace
	// layer's "shared store applied once per batch" claim is measured in.
	muts uint64
	// coal is NetDelta's coalescing scratch, reused across batches.
	coal coalescer
	// idx holds the built indexes (see Index). idxMu guards the map and
	// the indexes in it: concurrent evaluators hold the read lock on the
	// lookup fast path, lazy builds and index maintenance the write lock.
	// Published *Index values are mutated only under the write lock, so an
	// index that Index returned stays consistent for every concurrent
	// reader until the next mutation.
	idxMu sync.RWMutex
	idx   map[indexKey]*Index
}

// New returns an empty database with no declared relations.
func New() *Database {
	return &Database{rels: make(map[string]*Relation), idx: make(map[indexKey]*Index)}
}

// EnsureRelation declares a relation with the given arity (idempotent).
// It returns an error if the relation exists with a different arity.
func (d *Database) EnsureRelation(name string, arity int) error {
	if arity < 1 {
		return fmt.Errorf("relation %s: arity %d < 1", name, arity)
	}
	if r, ok := d.rels[name]; ok {
		if r.arity != arity {
			return fmt.Errorf("relation %s has arity %d, requested %d", name, r.arity, arity)
		}
		return nil
	}
	d.rels[name] = &Relation{arity: arity, tuples: tuplekey.NewTable[struct{}](arity)}
	return nil
}

// Relation returns the named relation, or nil if undeclared.
func (d *Database) Relation(name string) *Relation { return d.rels[name] }

// Relations returns the declared relation names in sorted order.
func (d *Database) Relations() []string {
	out := make([]string, 0, len(d.rels))
	for n := range d.rels { //dyncq:allow determinism names are sorted before returning, iteration order cannot leak
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Insert adds the tuple to the relation, declaring the relation with the
// tuple's arity if it is new, and to the relation's built indexes. It
// reports whether the database changed (false if the tuple was already
// present). An error is returned on arity mismatch.
//
//dyncq:hot
func (d *Database) Insert(rel string, tuple ...Value) (bool, error) {
	changed, err := d.insert(rel, tuple)
	if changed {
		d.indexOne(OpInsert, rel, tuple)
	}
	return changed, err
}

// Delete removes the tuple from the relation and its built indexes,
// reporting whether the database changed. Deleting from an undeclared
// relation is a no-op.
//
//dyncq:hot
func (d *Database) Delete(rel string, tuple ...Value) (bool, error) {
	changed, err := d.delete(rel, tuple)
	if changed {
		d.indexOne(OpDelete, rel, tuple)
	}
	return changed, err
}

// insert is Insert on the tuple storage alone; the caller maintains the
// indexes.
//
//dyncq:hot
func (d *Database) insert(rel string, tuple []Value) (bool, error) {
	if err := d.EnsureRelation(rel, len(tuple)); err != nil {
		return false, err
	}
	r := d.rels[rel]
	if r.arity != len(tuple) {
		return false, fmt.Errorf("insert %s: tuple arity %d, relation arity %d", rel, len(tuple), r.arity) //dyncq:allow hotalloc cold error path, never taken by validated batches
	}
	// One probe decides presence and, if absent, copies the tuple into the
	// relation's flat storage (callers may reuse their slice).
	if _, present := r.tuples.Ref(tuple); present {
		return false, nil
	}
	d.card++
	d.muts++
	return true, nil
}

// delete is Delete on the tuple storage alone; the caller maintains the
// indexes.
//
//dyncq:hot
func (d *Database) delete(rel string, tuple []Value) (bool, error) {
	r := d.rels[rel]
	if r == nil {
		return false, nil
	}
	if r.arity != len(tuple) {
		return false, fmt.Errorf("delete %s: tuple arity %d, relation arity %d", rel, len(tuple), r.arity) //dyncq:allow hotalloc cold error path, never taken by validated batches
	}
	if !r.tuples.Delete(tuple) {
		return false, nil
	}
	d.card--
	d.muts++
	return true, nil
}

// Mutations returns the number of successful mutations (inserts and
// deletes that changed the database) over the store's lifetime. Clear
// does not reset it, so the counter measures work done on the store
// regardless of Load cycles — the quantity behind the workspace layer's
// "shared store applied once per batch, independent of the number of
// registered queries" guarantee.
func (d *Database) Mutations() uint64 { return d.muts }

// Clear drops every relation (declarations included) and every index,
// returning the database to the empty state in place. Unlike assigning a
// fresh New(), Clear keeps the *Database pointer valid for every
// structure holding a reference to it — the shared-store contract of the
// workspace layer. The mutation counter is preserved.
func (d *Database) Clear() {
	d.rels = make(map[string]*Relation)
	d.card = 0
	d.coal = coalescer{}
	d.DropIndexes()
}

// CopyFrom inserts every tuple of src into d, declaring src's relations
// (including empty ones). It fails on an arity clash with a relation
// already declared in d; on a cleared or fresh database it cannot fail.
func (d *Database) CopyFrom(src *Database) error {
	for _, name := range src.Relations() {
		r := src.Relation(name)
		if err := d.EnsureRelation(name, r.Arity()); err != nil {
			return err
		}
		var insErr error
		r.Each(func(t []Value) bool {
			if _, err := d.Insert(name, t...); err != nil {
				insErr = err
				return false
			}
			return true
		})
		if insErr != nil {
			return insErr
		}
	}
	return nil
}

// NetDelta coalesces a batch and returns the subset of net commands that
// would actually change the database — the net delta a shared-store
// front door applies once and fans out to every registered query's
// maintenance structure, instead of each backend re-deriving it against
// a private copy. Commands keep their coalesced order. The check is
// stateless with respect to application order: coalescing leaves at most
// one command per (relation, tuple) pair and commands on distinct tuples
// are independent, so a command's effect against the pre-state equals
// its effect at its turn in any serial application of the delta.
//
// Arities are validated against d's declared relations and against the
// other commands of the batch (a batch that first declares a new
// relation must use it consistently), so a returned delta applies to d
// without errors. d's content is not modified, but the coalescing scratch
// it owns is: NetDelta belongs to the writer, like the mutators.
//
//dyncq:hot
func (d *Database) NetDelta(updates []Update) ([]Update, error) {
	net := d.coal.run(updates)
	var fresh map[string]int // relations the batch itself would declare
	out := net[:0]
	for _, u := range net {
		if r := d.rels[u.Rel]; r != nil {
			if r.arity != len(u.Tuple) {
				return nil, fmt.Errorf("%s %s: tuple arity %d, relation arity %d", u.Op, u.Rel, len(u.Tuple), r.arity) //dyncq:allow hotalloc cold error path, never taken by validated batches
			}
			if (u.Op == OpInsert) != r.Has(u.Tuple) {
				out = append(out, u)
			}
			continue
		}
		if want, ok := fresh[u.Rel]; ok && want != len(u.Tuple) {
			return nil, fmt.Errorf("%s %s: tuple arity %d, relation arity %d earlier in the batch", u.Op, u.Rel, len(u.Tuple), want) //dyncq:allow hotalloc cold error path, never taken by validated batches
		}
		if u.Op == OpDelete {
			continue // deleting from an undeclared relation is a no-op
		}
		if fresh == nil {
			fresh = make(map[string]int, 4) //dyncq:allow hotalloc only a batch that declares a relation gets here, once per relation's lifetime
		}
		fresh[u.Rel] = len(u.Tuple)
		out = append(out, u)
	}
	return out, nil
}

// Apply executes an update command, reporting whether the database
// changed.
func (d *Database) Apply(u Update) (bool, error) {
	if u.Op == OpInsert {
		return d.Insert(u.Rel, u.Tuple...)
	}
	return d.Delete(u.Rel, u.Tuple...)
}

// Coalesce reduces a batch of update commands to its net effect: for every
// (relation, tuple) pair only the last command in the batch survives,
// since under set semantics the final presence of a tuple is decided by
// the last command touching it and commands on distinct tuples commute.
// Surviving commands keep the order in which their tuple first appeared
// in the batch, so coalescing is deterministic. The input is not modified.
//
// Coalesce builds its slot tables afresh; the commit path goes through
// Database.NetDelta, which keeps them between batches.
func Coalesce(updates []Update) []Update {
	var c coalescer
	return c.run(updates)
}

// coalescer is the scratch behind Coalesce: per (relation, arity) a slot
// table from a tuple to the index of its command in the output. The
// tables are keyed by the tuples themselves — no per-command encoding —
// and by arity as well as name, because coalescing runs before arity
// validation and a fixed-stride table holds one key length. They are
// emptied, not dropped, after every run, so a steady stream of batches
// coalesces without allocating tables or growing them by rehash.
type coalescer struct {
	slots map[slotKey]*tuplekey.Table[int]
	used  []*tuplekey.Table[int] // tables the running call has filled
}

type slotKey struct {
	rel   string
	arity int
}

//dyncq:hot
func (c *coalescer) run(updates []Update) []Update {
	out := make([]Update, 0, len(updates))
	if len(updates) <= 1 {
		return append(out, updates...)
	}
	if c.slots == nil {
		c.slots = make(map[slotKey]*tuplekey.Table[int], 4) //dyncq:allow hotalloc first batch only
	}
	for _, u := range updates {
		k := slotKey{u.Rel, len(u.Tuple)}
		t := c.slots[k]
		if t == nil {
			t = tuplekey.NewTable[int](k.arity) //dyncq:allow hotalloc first batch touching the relation only
			c.slots[k] = t
		}
		if t.Len() == 0 {
			c.used = append(c.used, t) //dyncq:allow hotalloc bounded by the number of relations, kept across batches
		}
		at, seen := t.Ref(u.Tuple)
		if seen {
			out[*at] = u
			continue
		}
		*at = len(out)
		out = append(out, u)
	}
	for _, t := range c.used {
		t.Reset()
	}
	c.used = c.used[:0]
	return out
}

// ApplyAll executes a sequence of update commands, stopping at the first
// error.
func (d *Database) ApplyAll(updates []Update) error {
	for _, u := range updates {
		if _, err := d.Apply(u); err != nil {
			return err
		}
	}
	return nil
}

// ApplyNetDelta applies a net delta to the database and its built
// indexes, returning the number of commands applied (always
// len(survivors)). The survivors MUST come from NetDelta against the
// database's current state (or be equivalent: coalesced,
// arity-consistent, and each changing the store); ApplyNetDelta panics on
// a violated contract, exactly like the workspace layer's "validated
// delta failed to apply" guard. The store is written command by command,
// bit-identical to ApplyAll over the survivors; the indexes are then
// maintained under one lock for the whole delta. workers is ignored.
//
//dyncq:hot
func (d *Database) ApplyNetDelta(survivors []Update, workers int) int {
	for _, u := range survivors {
		var changed bool
		var err error
		if u.Op == OpInsert {
			changed, err = d.insert(u.Rel, u.Tuple)
		} else {
			changed, err = d.delete(u.Rel, u.Tuple)
		}
		if err != nil || !changed {
			panic(fmt.Sprintf("dyndb: net delta violates its contract at %s: changed=%v err=%v", u, changed, err))
		}
	}
	d.indexDelta(survivors)
	return len(survivors)
}

// Has reports whether the tuple is present in the named relation.
func (d *Database) Has(rel string, tuple ...Value) bool {
	r := d.rels[rel]
	return r != nil && r.Has(tuple)
}

// Cardinality returns |D|, the number of stored tuples.
func (d *Database) Cardinality() int { return d.card }

// Clone returns a deep copy of the database's tuples (indexes are not
// copied; the clone builds its own on first use).
func (d *Database) Clone() *Database {
	c := New()
	for name, r := range d.rels { //dyncq:allow determinism set-semantics copy: the clone's content is identical under any insertion order
		if err := c.EnsureRelation(name, r.arity); err != nil {
			panic(err) // fresh database: cannot conflict
		}
		r.Each(func(t []Value) bool {
			if _, err := c.Insert(name, t...); err != nil {
				panic(err)
			}
			return true
		})
	}
	return c
}

// Updates returns a sequence of insertion commands that rebuilds the
// database from empty, in deterministic order.
func (d *Database) Updates() []Update {
	var out []Update
	for _, name := range d.Relations() {
		for _, t := range d.rels[name].Tuples() {
			out = append(out, Insert(name, t...))
		}
	}
	return out
}

// indexKey names one index: a relation and the positions it is keyed by.
type indexKey struct {
	rel  string
	mask uint32
}

// Index is a hash index over one relation: it maps the projection of the
// relation's tuples onto the mask's positions to the set of matching
// tuples. Both levels are tuplekey.Tables keyed by the int64 tuples
// themselves: the outer one by the projection, each bucket by the whole
// tuple, stored once, inline — membership, O(1) removal and iteration all
// come from that one table. The probe path (Bucket) performs no encoding
// and no allocation. The IVM baseline's residual joins probe these instead
// of rescanning relations.
type Index struct {
	mask    uint32
	buckets *tuplekey.Table[*tuplekey.Table[struct{}]] // projected tuple → its tuples
	scratch []Value                                    // projection scratch, mutators only
}

func newIndex(mask uint32) *Index {
	return &Index{mask: mask, buckets: tuplekey.NewTable[*tuplekey.Table[struct{}]](bits.OnesCount32(mask))}
}

// Index returns the index on rel keyed by the positions set in mask,
// building it by a relation scan on first use; from then on every mutator
// maintains it until Clear or DropIndexes. Safe for concurrent use by any
// number of evaluators while the store is quiescent (no mutator running):
// the common case, an index already built, takes only the read lock.
func (d *Database) Index(rel string, mask uint32) *Index {
	k := indexKey{rel, mask}
	d.idxMu.RLock()
	ix, ok := d.idx[k]
	d.idxMu.RUnlock()
	if ok {
		return ix
	}
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if ix, ok := d.idx[k]; ok {
		return ix
	}
	ix = newIndex(mask)
	if r := d.rels[rel]; r != nil {
		r.Each(func(t []Value) bool {
			ix.add(t)
			return true
		})
	}
	d.idx[k] = ix
	return ix
}

// DropIndexes releases every built index; the next Index call rebuilds
// its index from the relation. The owner calls it when nothing evaluates
// against the store any more, so mutators stop maintaining indexes nobody
// reads.
func (d *Database) DropIndexes() {
	d.idxMu.Lock()
	clear(d.idx)
	d.idxMu.Unlock()
}

// indexOne maintains the built indexes on rel under one command the
// store just applied.
//
//dyncq:hot
func (d *Database) indexOne(op Op, rel string, tuple []Value) {
	d.idxMu.Lock()
	d.indexLocked(op, rel, tuple)
	d.idxMu.Unlock()
}

// indexDelta maintains the built indexes under a net delta the store just
// applied, under one lock for the whole delta.
//
//dyncq:hot
func (d *Database) indexDelta(delta []Update) {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if len(d.idx) == 0 {
		return
	}
	for _, u := range delta {
		d.indexLocked(u.Op, u.Rel, u.Tuple)
	}
}

// indexLocked files one applied command into every built index on its
// relation. Caller holds the index write lock.
//
//dyncq:hot
func (d *Database) indexLocked(op Op, rel string, tuple []Value) {
	for k, ix := range d.idx { //dyncq:allow determinism per-index maintenance is independent, any visit order yields the same indexes
		if k.rel != rel {
			continue
		}
		if op == OpInsert {
			ix.add(tuple)
		} else {
			ix.remove(tuple)
		}
	}
}

// proj writes the masked positions of t into the index's scratch slice
// and returns it. Mutators only (add/remove run under the index write
// lock); the concurrent read path (Bucket) never touches scratch.
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

// Bucket returns the set of tuples whose masked positions equal boundVals
// (in mask position order), nil if there are none. The table is owned by
// the index and valid until the store's next mutation; callers only read
// it (Keys yields slices aliasing it). No allocation and no key encoding
// happen on this path.
//
//dyncq:hot
func (ix *Index) Bucket(boundVals []Value) *tuplekey.Table[struct{}] {
	b, _ := ix.buckets.Get(boundVals)
	return b
}

// CheckIndexes verifies that every built index mirrors its relation:
// every indexed tuple is stored and filed under its own projection, every
// stored tuple is indexed, and no empty bucket is kept. Intended for
// tests and invariant audits; cost is linear in the relations and
// indexes.
func (d *Database) CheckIndexes() error {
	d.idxMu.RLock()
	defer d.idxMu.RUnlock()
	for k, ix := range d.idx { //dyncq:allow determinism diagnostic only; which violation is reported first may vary, presence does not
		r := d.rels[k.rel]
		count := 0
		var err error
		ix.buckets.Range(func(p []Value, b *tuplekey.Table[struct{}]) bool {
			if b.Len() == 0 {
				err = fmt.Errorf("index (%s,%b) keeps an empty bucket for %v", k.rel, k.mask, p)
				return false
			}
			return b.Keys(func(t []Value) bool {
				count++
				if r == nil || !r.Has(t) {
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
