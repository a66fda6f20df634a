// Package dyndb implements the fully dynamic relational databases of
// Section 2 of the paper: finite relations over the domain dom = int64
// under set semantics, modified by single-tuple insert and delete
// commands. Every relation stores each tuple once, as a record in a
// pointer-free arena, and finds it through a one-word-per-slot hash table
// keyed by the records (Relation), so a command costs the store one hash
// probe; the store counts its tuples (|D|) and the mutations it has
// applied, and nothing else. The paper's q-hierarchical bounds are stated
// in the query alone, so the store does not track which values occur in
// it.
//
// Every relation name the store meets gets a dense relation id, fixed the
// first time the name is declared (by EnsureRelation or a declaring
// insert) or registered (RelationID, Require, Index) and kept for the
// store's lifetime: Clear drops declarations, never ids, and a delete
// naming an unknown relation creates none. The commit path resolves a
// command's name once — NetDelta's coalescing pass looks it up and
// records the id on the command (IDOf reads it) — and from then on
// coalesces, validates, stores, indexes and dispatches by indexing slices
// with that id, as the paper's fixed schema σ reaches R's structures in
// O(1) (Section 2, footnote 2).
//
// A database also owns the indexes evaluators join through (Index): per
// projection a list of the stored tuples' refs, built on first use and
// maintained by every mutator, so an index always mirrors the tuples it
// was built on — no caller can mutate the store without the indexes
// seeing it — and holds no copy of a tuple.
package dyndb

import (
	"fmt"
	"sort"

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
	Op Op
	// rid is the relation id NetDelta resolved for Rel, plus one: 0 on a
	// command that did not come out of NetDelta. While a NetDelta call
	// runs, a name without an id carries a negative provisional key.
	rid   int32
	Rel   string
	Tuple []Value
}

// IDOf returns the relation id NetDelta recorded on u, or -1 if u did
// not come out of NetDelta. It is a function, not a method, so the
// command type re-exported by pkg/dyncq gains no exported surface.
func IDOf(u Update) int { return int(u.rid) - 1 }

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

// Database is a σ-db: a set of named relations, plus the indexes built
// on them. Relations are addressed by dense ids (the package doc): rels
// holds one slot per id ever assigned — the name, the relation while it
// is declared, the arity a registration requires — and ids maps a name to
// its slot. The zero value is not
// ready; use New. Reads may run concurrently with each other; a mutator,
// and an Index call that builds, need exclusive access.
type Database struct {
	ids  map[string]int32 // relation name → id; an id is never reassigned or dropped
	rels []relSlot        // by relation id
	card int              // |D|: total number of tuples
	// muts counts successful mutations (inserts + deletes that changed the
	// database) over the store's lifetime — the quantity the workspace
	// layer's "shared store applied once per batch" claim is measured in.
	muts uint64
	// coal is NetDelta's coalescing and validation scratch, reused across
	// batches.
	coal coalescer
	// idx holds the built indexes (see Index), per relation id.
	idx [][]*Index
}

// relSlot is what the store keeps under one relation id.
type relSlot struct {
	name string
	r    *Relation // nil while undeclared
	want int       // the arity Require fixed for every command, 0 if none
}

// New returns an empty database with no declared relations.
func New() *Database {
	return &Database{ids: make(map[string]int32)}
}

// id returns name's relation id, assigning the next one if it has none.
func (d *Database) id(name string) int32 {
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := int32(len(d.rels))
	d.ids[name] = id
	d.rels = append(d.rels, relSlot{name: name})
	return id
}

// RelationID returns name's relation id in d, assigning the next free one
// if the name has none yet — a registration: it declares nothing. An
// owner that dispatches commands by IDOf builds its id table from it. A
// call for a name that already has its id only reads d.
func RelationID(d *Database, name string) int { return int(d.id(name)) }

// Require registers rel (RelationID) and makes arity the arity of every
// command on it: NetDelta rejects a command whose tuple has another
// length, declared relation or not, and a declaration at another arity
// fails. arity 0 lifts the requirement. A shared-store owner mirrors its
// queries' union schema here, so one validation pass by id covers it;
// requirements, like ids, survive Clear.
func Require(d *Database, rel string, arity int) { d.rels[d.id(rel)].want = arity }

// EnsureRelation declares a relation with the given arity (idempotent).
// It returns an error if the relation exists with a different arity, or
// is required (Require) at a different one.
func (d *Database) EnsureRelation(name string, arity int) error {
	return d.declare(d.id(name), arity)
}

// declare is EnsureRelation by id.
func (d *Database) declare(id int32, arity int) error {
	s := &d.rels[id]
	if arity < 1 {
		return fmt.Errorf("relation %s: arity %d < 1", s.name, arity)
	}
	want := arity
	if s.r != nil {
		want = s.r.arity
	} else if s.want != 0 {
		want = s.want
	}
	if want != arity {
		return fmt.Errorf("relation %s has arity %d, requested %d", s.name, want, arity)
	}
	if s.r == nil {
		s.r = newRelation(arity)
		for _, ix := range d.indexes(id) {
			ix.rel = s.r
		}
	}
	return nil
}

// Relation returns the named relation, or nil if undeclared.
func (d *Database) Relation(name string) *Relation {
	if id, ok := d.ids[name]; ok {
		return d.rels[id].r
	}
	return nil
}

// Relations returns the declared relation names in sorted order.
func (d *Database) Relations() []string {
	out := make([]string, 0, len(d.rels))
	for _, s := range d.rels {
		if s.r != nil {
			out = append(out, s.name)
		}
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
	return d.insert(d.id(rel), tuple)
}

// Delete removes the tuple from the relation and its built indexes,
// reporting whether the database changed. Deleting from an undeclared
// relation is a no-op.
//
//dyncq:hot
func (d *Database) Delete(rel string, tuple ...Value) (bool, error) {
	id, ok := d.ids[rel]
	if !ok {
		return false, nil
	}
	return d.delete(id, tuple)
}

// insert is Insert by relation id.
//
//dyncq:hot
func (d *Database) insert(id int32, tuple []Value) (bool, error) {
	s := &d.rels[id]
	if s.r == nil || s.r.arity != len(tuple) {
		if err := d.declare(id, len(tuple)); err != nil {
			return false, err
		}
	}
	// One probe decides presence and, if absent, copies the tuple into a
	// record (callers may reuse their slice).
	if !s.r.insert(tuple, d.indexes(id)) {
		return false, nil
	}
	d.card++
	d.muts++
	return true, nil
}

// delete is Delete by relation id.
//
//dyncq:hot
func (d *Database) delete(id int32, tuple []Value) (bool, error) {
	s := &d.rels[id]
	r := s.r
	if r == nil {
		return false, nil
	}
	if r.arity != len(tuple) {
		return false, fmt.Errorf("delete %s: tuple arity %d, relation arity %d", s.name, len(tuple), r.arity) //dyncq:allow hotalloc cold error path, never taken by validated batches
	}
	if !r.delete(tuple, d.indexes(id)) {
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
// workspace layer. Relation ids, requirements (Require) and the mutation
// counter are preserved: an owner's id tables stay valid across Clear.
func (d *Database) Clear() {
	for i := range d.rels {
		d.rels[i].r = nil
	}
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
// The coalescing pass resolves each command's relation name to its id,
// the one name lookup a command costs the store, and records it on the
// returned commands (IDOf); everything after dispatches by that id. An
// insert on a relation the store has never met is given an id once the
// batch has validated (its insert declares the relation); a delete on
// one is a no-op and gets none.
//
// Arities are validated against d's declared relations, against the
// arities required by Require, and against the other commands of the
// batch (a batch that first declares a new relation must use it
// consistently, and not with the empty tuple: a relation has arity 1 or
// more), so a returned delta applies to d without errors. Every
// coalesced command is validated, no-ops included. d's content is not
// modified, but the scratch it owns is: NetDelta belongs to the writer,
// like the mutators, and the returned slice is valid until the next
// NetDelta call, which reuses it.
//
//dyncq:hot
func (d *Database) NetDelta(updates []Update) ([]Update, error) {
	c := &d.coal
	net := c.run(updates, d.ids)
	out := net[:0]
	fresh := c.fresh[:0] // relations the batch itself would declare
	pending := false     // a survivor names a relation that has no id yet
	for _, u := range net {
		if u.rid > 0 {
			s := &d.rels[u.rid-1]
			if r := s.r; r != nil {
				if r.arity != len(u.Tuple) {
					return nil, fmt.Errorf("%s %s: tuple arity %d, relation arity %d", u.Op, u.Rel, len(u.Tuple), r.arity) //dyncq:allow hotalloc cold error path, never taken by validated batches
				}
				if (u.Op == OpInsert) != r.Has(u.Tuple) {
					out = append(out, u)
				}
				continue
			}
			if s.want != 0 {
				if s.want != len(u.Tuple) {
					return nil, fmt.Errorf("%s %s: tuple arity %d, required arity %d", u.Op, u.Rel, len(u.Tuple), s.want) //dyncq:allow hotalloc cold error path, never taken by validated batches
				}
				if u.Op == OpInsert {
					out = append(out, u)
				}
				continue
			}
		}
		want := -1
		for _, f := range fresh {
			if f.rid == u.rid {
				want = f.arity
				break
			}
		}
		if want >= 0 && want != len(u.Tuple) {
			return nil, fmt.Errorf("%s %s: tuple arity %d, relation arity %d earlier in the batch", u.Op, u.Rel, len(u.Tuple), want) //dyncq:allow hotalloc cold error path, never taken by validated batches
		}
		if u.Op == OpDelete {
			continue // deleting from an undeclared relation is a no-op
		}
		if want < 0 {
			if len(u.Tuple) == 0 { // its insert would declare a relation of arity 0
				return nil, fmt.Errorf("insert %s: empty tuple, a relation has arity 1 or more", u.Rel) //dyncq:allow hotalloc cold error path, never taken by validated batches
			}
			fresh = append(fresh, freshRel{u.rid, len(u.Tuple)}) //dyncq:allow hotalloc only a batch that declares a relation gets here, kept across batches
		}
		pending = pending || u.rid < 0
		out = append(out, u)
	}
	c.fresh = fresh[:0]
	if pending {
		for i := range out {
			if out[i].rid < 0 {
				out[i].rid = d.id(out[i].Rel) + 1
			}
		}
	}
	return out, nil
}

// freshRel is a relation a batch declares, at the arity of its first
// insert, keyed by its commands' rid.
type freshRel struct {
	rid   int32
	arity int
}

// Apply executes an update command, reporting whether the database
// changed. Apply and ApplyAll are the command-at-a-time reference
// semantics: a batch's NetDelta, applied with ApplyNetDelta, leaves the
// database as applying its commands one by one here would.
func (d *Database) Apply(u Update) (bool, error) {
	if u.Op == OpInsert {
		return d.Insert(u.Rel, u.Tuple...)
	}
	return d.Delete(u.Rel, u.Tuple...)
}

// coalescer is the scratch behind NetDelta: one tuplekey.RefTable keyed
// by its own output. A command's ref is its index in the output plus one
// and its hash tuplekey.Extend(tuplekey.Hash(tuple), rid), so a match is
// the same rid and an Equal tuple — no per-command encoding, and Equal
// tells arities apart, as it must: coalescing runs before arity
// validation, and a relation re-declared at another arity after Clear
// keeps its id. The rid is the relation's id + 1, or, for a name the
// store has no id for, a provisional −(k+1), fixed for the running call.
// The table and the output slice (up to keepOut commands) are emptied,
// not dropped, after every run, so a steady stream of batches coalesces
// without allocating.
type coalescer struct {
	slots   tuplekey.RefTable
	out     []Update         // the last run's result if it was small, reused by the next
	pending map[string]int32 // names without an id → provisional k, running call only
	fresh   []freshRel       // NetDelta's scratch
}

// run coalesces updates, recording on each output command its relation's
// id + 1 from ids, or −(k+1) for the k-th name of the call that ids
// lacks.
//
//dyncq:hot
func (c *coalescer) run(updates []Update, ids map[string]int32) []Update {
	out := c.out[:0]
	if cap(out) < len(updates) {
		out = make([]Update, 0, len(updates)) //dyncq:allow hotalloc grows to the largest commit-sized batch once, reused after (keepOut)
	}
	for _, u := range updates {
		if id, known := ids[u.Rel]; known {
			u.rid = id + 1
		} else {
			u.rid = -c.provisional(u.Rel) - 1
		}
		if len(updates) == 1 {
			out = append(out, u)
			break
		}
		c.slots.Reserve()
		h := tuplekey.Extend(tuplekey.Hash(u.Tuple), int64(u.rid))
		slot, at := c.find(out, u, h)
		if at >= 0 {
			out[at] = u
			continue
		}
		c.slots.Put(slot, h, uint32(len(out)+1))
		out = append(out, u)
	}
	if c.slots.Len() > 0 {
		c.slots.Reset()
	}
	if len(c.pending) > 0 {
		clear(c.pending)
	}
	c.out = nil
	if cap(out) <= keepOut {
		c.out = out
	}
	return out
}

// find looks up u's relation and tuple, of hash h, among the commands of
// out. If one is there, find returns its slot and index; otherwise index
// -1 and the slot an insert claims.
//
//dyncq:hot
func (c *coalescer) find(out []Update, u Update, h uint64) (slot uint32, at int) {
	s := c.slots.Slots
	mask := uint32(len(s) - 1)
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		w := s[i]
		if w == 0 {
			return i, -1
		}
		if uint32(w>>32) == uint32(h) {
			if o := &out[uint32(w)-1]; o.rid == u.rid && tuplekey.Equal(o.Tuple, u.Tuple) {
				return i, int(uint32(w)) - 1
			}
		}
	}
}

// keepOut bounds, in commands, the output slice a coalescer keeps for its
// next run: commit-sized batches reuse one slice, while a bulk load's
// batches allocate theirs per call and leave no large slice — nor
// references to their tuples — alive between commits, which measurably
// raised a loaded server's peak RSS.
const keepOut = 1024

// provisional returns the running call's k for a name that has no id:
// the same one for every command naming it.
func (c *coalescer) provisional(name string) int32 {
	if c.pending == nil {
		c.pending = make(map[string]int32, 4)
	}
	k, ok := c.pending[name]
	if !ok {
		k = int32(len(c.pending))
		c.pending[name] = k
	}
	return k
}

// ApplyAll executes a sequence of update commands one at a time through
// Apply, stopping at the first error: the command-at-a-time reference
// semantics the batch path (NetDelta, ApplyNetDelta) is held to.
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
// arity-consistent, each changing the store, and carrying the relation
// ids NetDelta recorded); ApplyNetDelta panics on a violated contract,
// exactly like the workspace layer's "validated delta failed to apply"
// guard. Each command reaches its relation by its id, no name lookup.
// The store and its indexes are written command by command, as ApplyAll
// over the survivors writes them. workers is ignored.
//
//dyncq:hot
func (d *Database) ApplyNetDelta(survivors []Update, workers int) int {
	for _, u := range survivors {
		id := u.rid - 1
		if id < 0 || int(id) >= len(d.rels) || d.rels[id].name != u.Rel {
			panic(fmt.Sprintf("dyndb: net delta violates its contract at %s: relation id %d is not its own", u, id))
		}
		var changed bool
		var err error
		if u.Op == OpInsert {
			changed, err = d.insert(id, u.Tuple)
		} else {
			changed, err = d.delete(id, u.Tuple)
		}
		if err != nil || !changed {
			panic(fmt.Sprintf("dyndb: net delta violates its contract at %s: changed=%v err=%v", u, changed, err))
		}
	}
	return len(survivors)
}

// Has reports whether the tuple is present in the named relation.
func (d *Database) Has(rel string, tuple ...Value) bool {
	r := d.Relation(rel)
	return r != nil && r.Has(tuple)
}

// Cardinality returns |D|, the number of stored tuples.
func (d *Database) Cardinality() int { return d.card }

// Clone returns a deep copy of the database's tuples (indexes are not
// copied; the clone builds its own on first use, and assigns its own
// relation ids).
func (d *Database) Clone() *Database {
	c := New()
	for _, s := range d.rels {
		if s.r == nil {
			continue
		}
		if err := c.EnsureRelation(s.name, s.r.arity); err != nil {
			panic(err) // fresh database: cannot conflict
		}
		s.r.Each(func(t []Value) bool {
			if _, err := c.Insert(s.name, t...); err != nil {
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
		for _, t := range d.Relation(name).Tuples() {
			out = append(out, Insert(name, t...))
		}
	}
	return out
}
