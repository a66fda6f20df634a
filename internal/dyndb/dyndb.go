// Package dyndb implements the fully dynamic relational databases of
// Section 2 of the paper: finite relations over the domain dom = int64
// under set semantics, modified by single-tuple insert and delete
// commands. It tracks the quantities the paper's bounds are stated in:
// the cardinality |D| (number of stored tuples), the active domain size
// n = |adom(D)|, and the size ||D|| = |σ| + |adom(D)| + Σ_R ar(R)·|R^D|.
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

// Relation is a finite set of tuples of a fixed arity. Its tuple storage
// is split into the owning database's fixed number of hash shards (one
// for the default New database): a tuple lives in the shard selected by
// updateHash, the same hash Partition buckets commands by, so a net
// batch partitioned by that hash touches pairwise disjoint shard tables —
// the property ApplyNetDelta's parallel workers rely on. A shard keeps
// its tuples inline in one flat array at stride arity (tuplekey.Table):
// a stored tuple is 8·arity bytes, not a heap object.
type Relation struct {
	name   string
	arity  int
	shards []*tuplekey.Table[struct{}]
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns |R^D|.
func (r *Relation) Len() int {
	n := 0
	for _, m := range r.shards {
		n += m.Len()
	}
	return n
}

// shard returns the shard table storing the tuple.
func (r *Relation) shard(tuple []Value) *tuplekey.Table[struct{}] {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	return r.shards[updateHash(r.name, tuple)%uint64(len(r.shards))]
}

// Has reports whether the tuple is present.
func (r *Relation) Has(tuple []Value) bool { return r.shard(tuple).Has(tuple) }

// Each calls fn for every tuple until fn returns false. The tuple slice
// passed to fn aliases the relation's storage: it must not be mutated, and
// it is dead after the relation's next mutation — copy it to retain it.
// The relation must not be modified during iteration. Shards are visited
// in index order (with one shard this is exactly the pre-shard iteration).
func (r *Relation) Each(fn func(tuple []Value) bool) {
	for _, m := range r.shards {
		if !m.Keys(fn) {
			return
		}
	}
}

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

// Database is a σ-db: a set of named relations. The zero value is not
// ready; use New or NewSharded.
type Database struct {
	// shards is the fixed number of hash shards every relation's tuple
	// map and the adom occurrence counts are split into. 1 (New's
	// default) is bit-identical to the pre-shard single-map layout; more
	// shards let ApplyNetDelta apply a net batch on parallel workers.
	shards int
	rels   map[string]*Relation
	// adom counts occurrences of every constant across all stored tuples
	// so that deletions maintain the active domain exactly, split by
	// value hash into the same number of shards as the relations.
	adom     []map[Value]int
	adomSize int
	card     int // |D|: total number of tuples
	// muts counts successful mutations (inserts + deletes that changed the
	// database) over the store's lifetime — the quantity the workspace
	// layer's "shared store applied once per batch" claim is measured in.
	muts uint64
	// epoch counts state transitions: every successful mutation and every
	// Clear advances it. Structures maintained alongside the store (the
	// eval.IndexSet) record the epoch they are synchronised to and fall
	// back to a rebuild when the store moved without notifying them.
	epoch uint64
	// coal is NetDelta's coalescing scratch, reused across batches.
	coal coalescer
}

// New returns an empty unsharded database with no declared relations.
func New() *Database { return NewSharded(1) }

// NewSharded returns an empty database whose relation tuple maps and
// adom counts are split into the given number of hash shards (values
// < 1 mean 1). One shard is the default layout; more shards change no
// observable content — only the internal partitioning that lets
// ApplyNetDelta run a net batch on parallel workers.
func NewSharded(shards int) *Database {
	if shards < 1 {
		shards = 1
	}
	return &Database{shards: shards, rels: make(map[string]*Relation), adom: newAdom(shards)}
}

func newAdom(shards int) []map[Value]int {
	adom := make([]map[Value]int, shards)
	for i := range adom {
		adom[i] = make(map[Value]int)
	}
	return adom
}

// Shards returns the number of hash shards of the store (1 for New).
func (d *Database) Shards() int { return d.shards }

// Epoch returns the number of state transitions (successful mutations
// and Clears) the store has undergone. Companion structures use it to
// detect having missed updates (see eval.IndexSet).
func (d *Database) Epoch() uint64 { return d.epoch }

// updateHash is the hash both Partition and the relation shard maps
// bucket a command by: the tuple hash folded with the relation name, so
// commands on the same (relation, tuple) pair always land together.
func updateHash(rel string, tuple []Value) uint64 {
	h := tuplekey.Hash(tuple)
	for i := 0; i < len(rel); i++ {
		h = h*0x100000001b3 ^ uint64(rel[i])
	}
	return h
}

// adomShard returns the index of the adom shard counting v.
func (d *Database) adomShard(v Value) int {
	if d.shards == 1 {
		return 0
	}
	z := uint64(v) + 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(d.shards))
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
	shards := make([]*tuplekey.Table[struct{}], d.shards)
	for i := range shards {
		shards[i] = tuplekey.NewTable[struct{}](arity)
	}
	d.rels[name] = &Relation{name: name, arity: arity, shards: shards} //dyncq:allow epochstep declaring an empty relation adds no tuple or adom content, so indexes stay consistent without an epoch step
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
// tuple's arity if it is new. It reports whether the database changed
// (false if the tuple was already present). An error is returned on arity
// mismatch.
//
//dyncq:hot
func (d *Database) Insert(rel string, tuple ...Value) (bool, error) {
	if err := d.EnsureRelation(rel, len(tuple)); err != nil {
		return false, err
	}
	r := d.rels[rel]
	if r.arity != len(tuple) {
		return false, fmt.Errorf("insert %s: tuple arity %d, relation arity %d", rel, len(tuple), r.arity) //dyncq:allow hotalloc cold error path, never taken by validated batches
	}
	// One probe decides presence and, if absent, copies the tuple into the
	// shard's flat storage (callers may reuse their slice).
	if _, present := r.shard(tuple).Ref(tuple); present {
		return false, nil
	}
	d.card++
	d.muts++
	d.epoch++
	for _, v := range tuple {
		a := d.adom[d.adomShard(v)]
		a[v]++
		if a[v] == 1 {
			d.adomSize++
		}
	}
	return true, nil
}

// Delete removes the tuple from the relation, reporting whether the
// database changed. Deleting from an undeclared relation is a no-op.
//
//dyncq:hot
func (d *Database) Delete(rel string, tuple ...Value) (bool, error) {
	r := d.rels[rel]
	if r == nil {
		return false, nil
	}
	if r.arity != len(tuple) {
		return false, fmt.Errorf("delete %s: tuple arity %d, relation arity %d", rel, len(tuple), r.arity) //dyncq:allow hotalloc cold error path, never taken by validated batches
	}
	if !r.shard(tuple).Delete(tuple) {
		return false, nil
	}
	d.card--
	d.muts++
	d.epoch++
	for _, v := range tuple {
		a := d.adom[d.adomShard(v)]
		a[v]--
		if a[v] == 0 {
			d.adomSize--
			delete(a, v)
		}
	}
	return true, nil
}

// Mutations returns the number of successful mutations (inserts and
// deletes that changed the database) over the store's lifetime. Clear
// does not reset it, so the counter measures work done on the store
// regardless of Load cycles — the quantity behind the workspace layer's
// "shared store applied once per batch, independent of the number of
// registered queries" guarantee.
func (d *Database) Mutations() uint64 { return d.muts }

// Clear drops every relation (declarations included), returning the
// database to the empty state in place. Unlike assigning a fresh New(),
// Clear keeps the *Database pointer valid for every structure holding a
// reference to it — the shared-store contract of the workspace layer.
// The mutation counter and the shard count are preserved; the epoch
// advances (the content changed without per-tuple notifications).
func (d *Database) Clear() {
	d.rels = make(map[string]*Relation)
	d.adom = newAdom(d.shards)
	d.adomSize = 0
	d.card = 0
	d.epoch++
	d.coal = coalescer{}
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

// Partition splits a batch into shards sub-batches by hash of the
// (relation, tuple) pair, preserving the relative order of commands
// inside every shard. All commands on the same tuple land in the same
// shard, so under set semantics the shards commute: applying them in any
// order (or concurrently, each as its own batch) reaches the same final
// database as the original batch — the companion of Coalesce for callers
// that fan a net batch out over parallel appliers. Empty shards are
// returned as nil slices; shards < 2 returns the whole batch as one
// shard. The input is not modified.
func Partition(updates []Update, shards int) [][]Update {
	if shards < 2 {
		return [][]Update{append([]Update(nil), updates...)}
	}
	out := make([][]Update, shards)
	for _, u := range updates {
		s := updateHash(u.Rel, u.Tuple) % uint64(shards)
		out[s] = append(out[s], u)
	}
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

// Has reports whether the tuple is present in the named relation.
func (d *Database) Has(rel string, tuple ...Value) bool {
	r := d.rels[rel]
	return r != nil && r.Has(tuple)
}

// Cardinality returns |D|, the number of stored tuples.
func (d *Database) Cardinality() int { return d.card }

// ActiveDomainSize returns n = |adom(D)|.
func (d *Database) ActiveDomainSize() int { return d.adomSize }

// InActiveDomain reports whether v occurs in some stored tuple.
func (d *Database) InActiveDomain(v Value) bool { return d.adom[d.adomShard(v)][v] > 0 }

// ActiveDomain returns the active domain in sorted order.
func (d *Database) ActiveDomain() []Value {
	out := make([]Value, 0, d.adomSize)
	for _, a := range d.adom {
		for v := range a { //dyncq:allow determinism values are sorted before returning, iteration order cannot leak
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns ||D|| = |σ| + |adom(D)| + Σ_R ar(R)·|R^D| as defined in
// Section 2.
func (d *Database) Size() int {
	s := len(d.rels) + d.adomSize
	for _, r := range d.rels { //dyncq:allow determinism commutative sum, iteration order cannot affect the total
		s += r.arity * r.Len()
	}
	return s
}

// Clone returns a deep copy of the database (same shard count).
func (d *Database) Clone() *Database {
	c := NewSharded(d.shards)
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
