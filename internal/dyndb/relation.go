package dyndb

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dyncq/internal/tuplekey"
)

// Relation is a finite set of tuples of a fixed arity. Each stored tuple
// is one record of arity words in a tuplekey.Arena, named by a 32-bit ref
// (0 is nil) that does not change while the tuple is stored; a deleted
// tuple's record goes back to the arena for the next insert. Membership is
// a tuplekey.RefTable, one word per slot, whose keys are the records
// themselves; each built index lists the same refs (Index). Neither the
// records nor the slots hold a Go pointer, so the garbage collector scans
// only the chunk directory.
type Relation struct {
	arity int
	recs  tuplekey.Arena[Value]
	slots tuplekey.RefTable
}

// newRelation returns an empty relation of the given arity (1 or more).
func newRelation(arity int) *Relation {
	return &Relation{arity: arity, recs: tuplekey.NewArena[Value](arity)}
}

const (
	chunkShift = 10 // an index's position words per chunk, as a power of two
	chunkMask  = 1<<chunkShift - 1
)

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns |R^D|.
func (r *Relation) Len() int { return r.slots.Len() }

// Has reports whether the tuple is present.
//
//dyncq:hot
func (r *Relation) Has(tuple []Value) bool {
	if len(tuple) != r.arity {
		return false
	}
	_, ref := r.find(tuple, tuplekey.Hash(tuple))
	return ref != 0
}

// Each calls fn for every tuple until fn returns false, in no specified
// order. The tuple slice passed to fn aliases the relation's storage: it
// must not be mutated, and it is dead after the relation's next mutation —
// copy it to retain it. The relation must not be modified during
// iteration.
func (r *Relation) Each(fn func(tuple []Value) bool) {
	for _, w := range r.slots.Slots {
		if w != 0 && !fn(r.tuple(uint32(w))) {
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
	slices.SortFunc(out, slices.Compare[[]Value])
	return out
}

// tuple resolves a ref to its record.
//
//dyncq:hot
func (r *Relation) tuple(ref uint32) []Value { return r.recs.Rec(ref) }

// find looks up tuple, of hash h and the relation's arity. If it is
// stored, find returns its slot and ref; otherwise ref 0 and the slot an
// insert claims.
//
//dyncq:hot
func (r *Relation) find(tuple []Value, h uint64) (slot, ref uint32) {
	s := r.slots.Slots
	if len(s) == 0 {
		return 0, 0
	}
	mask := uint32(len(s) - 1)
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		w := s[i]
		if w == 0 {
			return i, 0
		}
		if uint32(w>>32) == uint32(h) && tuplekey.Equal(r.tuple(uint32(w)), tuple) {
			return i, uint32(w)
		}
	}
}

// insert stores a copy of tuple (of the relation's arity) and links it
// into ixs, reporting false if it was already stored.
//
//dyncq:hot
func (r *Relation) insert(tuple []Value, ixs []*Index) bool {
	h := tuplekey.Hash(tuple)
	r.slots.Reserve()
	slot, ref := r.find(tuple, h)
	if ref != 0 {
		return false
	}
	ref = r.recs.Alloc()
	rec := r.tuple(ref)
	copy(rec, tuple)
	r.slots.Put(slot, h, ref)
	for _, ix := range ixs {
		ix.add(ref, rec)
	}
	return true
}

// delete unlinks tuple (of the relation's arity) from ixs and frees its
// record, reporting false if it was not stored.
//
//dyncq:hot
func (r *Relation) delete(tuple []Value, ixs []*Index) bool {
	slot, ref := r.find(tuple, tuplekey.Hash(tuple))
	if ref == 0 {
		return false
	}
	rec := r.tuple(ref)
	for _, ix := range ixs {
		ix.remove(ref, rec)
	}
	r.slots.Free(slot)
	r.recs.Free(ref)
	return true
}

// check audits the relation's storage and returns, by ref, which records
// hold a stored tuple: every slot names a record handed out, no other slot
// names it, every other record is on the arena's free chain — audited
// before any record is read — and per slot its hash bits are the
// tuple's, a probe finds it there, and no empty slot lies between its
// home and its slot.
func (r *Relation) check() ([]bool, error) {
	n := r.recs.N()
	live := make([]bool, uint64(n)+1)
	for i, w := range r.slots.Slots {
		if ref := uint32(w); w != 0 {
			if ref == 0 || ref > n || live[ref] {
				return nil, fmt.Errorf("slot %d: ref %d is nil, never handed out or stored twice", i, ref)
			}
			live[ref] = true
		}
	}
	if err := r.recs.CheckFree(live, r.Len()); err != nil {
		return nil, err
	}
	for i, w := range r.slots.Slots {
		if w == 0 {
			continue
		}
		ref := uint32(w)
		t := r.tuple(ref)
		h := tuplekey.Hash(t)
		if uint32(w>>32) != uint32(h) {
			return nil, fmt.Errorf("slot %d: %v holds hash bits %#x, the tuple hashes to %#x", i, t, w>>32, uint32(h))
		}
		if slot, found := r.find(t, h); found != ref || slot != uint32(i) {
			return nil, fmt.Errorf("slot %d: a probe for %v finds ref %d in slot %d, not ref %d", i, t, found, slot, ref)
		}
		if gap := r.slots.Gap(i); gap >= 0 {
			return nil, fmt.Errorf("slot %d: empty slot %d lies between the home of %v and its slot", i, gap, t)
		}
	}
	return live, nil
}

// Index is a hash index over one relation: it maps the projection of the
// relation's tuples onto the mask's positions to the list of matching
// tuples — a head and a count, kept in a tuplekey.Table keyed by the
// projection. A list holds refs, not tuples: it is a chain of blocks of
// blockRefs refs each, one cache line a block, from a pointer-free pool
// the index owns, and every block but the head is full. Per ref the index
// keeps where in its list the ref sits (pos), so filing a tuple is a
// store into the head block and removing one moves the head block's last
// ref into its place, both O(1) with no growth; a block that empties goes
// back to the pool, a tuplekey.Arena whose free chain runs through the
// blocks' next words, and a list whose last tuple goes is dropped.
// A walk reads blockRefs refs per dependent load, so the records it
// visits are fetched side by side rather than one after another, as a
// chain through the records would fetch them. The probe path (Bucket)
// performs no encoding and no allocation. The IVM baseline's residual
// joins walk these instead of rescanning relations.
type Index struct {
	mask    uint32
	rel     *Relation              // nil until the relation is declared
	lists   *tuplekey.Table[list]  // projected tuple → its list
	blocks  tuplekey.Arena[uint32] // the block pool; block 0 is nil's
	pos     [][]uint32             // by ref, 1<<chunkShift a chunk: block<<blockBits | word
	scratch []Value                // projection scratch, mutators only
}

// list is one projection's list: its head block and its length.
type list struct{ head, n uint32 }

// A block is blockWords words: the next block's number, then blockRefs
// refs.
const (
	blockBits  = 4
	blockWords = 1 << blockBits
	blockRefs  = blockWords - 1
)

// Index returns the index on rel keyed by the positions set in mask,
// building it by a relation scan on first use; from then on every mutator
// maintains it until Clear or DropIndexes. An index asked for on a name
// without a relation id registers the name (RelationID), so the mutator
// that later declares it maintains the index.
func (d *Database) Index(rel string, mask uint32) *Index {
	id := d.id(rel)
	for int(id) >= len(d.idx) {
		d.idx = append(d.idx, nil)
	}
	for _, ix := range d.idx[id] {
		if ix.mask == mask {
			return ix
		}
	}
	ix := &Index{mask: mask, rel: d.rels[id].r, lists: tuplekey.NewTable[list](bits.OnesCount32(mask)),
		blocks: tuplekey.NewArena[uint32](blockWords)}
	if r := ix.rel; r != nil {
		for _, w := range r.slots.Slots {
			if w != 0 {
				ix.add(uint32(w), r.tuple(uint32(w)))
			}
		}
	}
	d.idx[id] = append(d.idx[id], ix)
	return ix
}

// indexes returns the built indexes on relation id.
//
//dyncq:hot
func (d *Database) indexes(id int32) []*Index {
	if int(id) < len(d.idx) {
		return d.idx[id]
	}
	return nil
}

// DropIndexes releases every built index; the next Index call rebuilds
// its index from the relation. The owner calls it when nothing evaluates
// against the store any more, so mutators stop maintaining indexes nobody
// reads.
func (d *Database) DropIndexes() {
	clear(d.idx)
	d.idx = d.idx[:0]
}

// proj writes the masked positions of t into the index's scratch slice
// and returns it. Mutators only; the read path (Bucket) never touches
// scratch.
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

// block resolves a block number to its words.
//
//dyncq:hot
func (ix *Index) block(b uint32) []uint32 { return ix.blocks.Rec(b) }

// at returns ref's position word.
//
//dyncq:hot
func (ix *Index) at(ref uint32) *uint32 { return &ix.pos[ref>>chunkShift][ref&chunkMask] }

// add files the stored tuple t, of ref, at the head of its list, in a new
// head block if the head is full.
//
//dyncq:hot
func (ix *Index) add(ref uint32, t []Value) {
	for int(ref>>chunkShift) >= len(ix.pos) {
		ix.pos = append(ix.pos, make([]uint32, 1<<chunkShift)) //dyncq:allow hotalloc one allocation per chunk of 1<<chunkShift refs, as the relation's
	}
	l, _ := ix.lists.Ref(ix.proj(t))
	k := l.n % blockRefs
	if k == 0 {
		b := ix.blocks.Alloc()
		if b > math.MaxUint32>>blockBits {
			panic("dyndb: an index holds 2^28-1 blocks, the most a position word can address")
		}
		ix.block(b)[0] = l.head
		l.head = b
	}
	ix.block(l.head)[1+k] = ref
	*ix.at(ref) = l.head<<blockBits | (1 + k)
	l.n++
}

// remove takes the stored tuple t, of ref, out of its list: the head
// block's last ref moves into its place, a head block left empty goes back
// to the pool, and the list is dropped if t was its last tuple.
//
//dyncq:hot
func (ix *Index) remove(ref uint32, t []Value) {
	p := ix.proj(t)
	l := ix.lists.Ptr(p)
	l.n--
	head := ix.block(l.head)
	k := l.n % blockRefs // the head's last ref is head[1+k]
	last, at := head[1+k], *ix.at(ref)
	ix.block(at >> blockBits)[at&blockRefs] = last
	*ix.at(last) = at
	if k == 0 {
		b := l.head
		l.head = head[0]
		ix.blocks.Free(b)
	}
	if l.n == 0 {
		ix.lists.Delete(p)
	}
}

// Bucket is the list of an index's tuples under one projection, as
// Index.Bucket found it. The zero Bucket is empty.
type Bucket struct {
	ix   *Index
	head uint32
	n    uint32
}

// Bucket returns the tuples whose masked positions equal boundVals (in
// mask position order). The bucket is valid until the store's next
// mutation. No allocation and no key encoding happen on this path.
//
//dyncq:hot
func (ix *Index) Bucket(boundVals []Value) Bucket {
	l, _ := ix.lists.Get(boundVals)
	return Bucket{ix, l.head, l.n}
}

// Len returns the number of tuples in the bucket.
func (b Bucket) Len() int { return int(b.n) }

// Each calls fn for every tuple of the bucket until fn returns false, and
// reports whether it ran to the end; the order is unspecified. The tuple
// slices alias the relation's storage, as Relation.Each's do.
//
//dyncq:hot
func (b Bucket) Each(fn func(tuple []Value) bool) bool {
	if b.n == 0 {
		return true
	}
	ix, r := b.ix, b.ix.rel
	fill := 1 + (b.n-1)%blockRefs
	for blk := b.head; blk != 0; fill = blockRefs {
		words := ix.block(blk)
		refs := words[1 : 1+fill]
		// Load every record of the block before visiting the first: the
		// loads do not wait on each other, so their cache misses overlap,
		// where the visits, each a join step, would take them one at a
		// time. keep makes the compiler keep the loads.
		var sum Value
		for _, ref := range refs {
			sum += r.tuple(ref)[0]
		}
		keep(sum)
		for _, ref := range refs {
			if !fn(r.tuple(ref)) {
				return false
			}
		}
		blk = words[0]
	}
	return true
}

// keep takes a value, which the compiler must therefore compute, and
// does nothing with it.
//
//go:noinline
func keep(Value) {}

// CheckIndexes audits the store's tuple storage and every built index
// against it: each relation's membership slots and free chain
// (Relation.check), and per index that every list holds only stored
// tuples filed under their own projection, at the positions the index
// records for them, in blocks handed out, none of them free, reached
// twice or left empty, with the count the list keeps, and that the lists
// together hold every stored tuple. Intended for tests and invariant
// audits; cost is linear in the relations and indexes.
func (d *Database) CheckIndexes() error {
	for id := range d.rels {
		s := &d.rels[id]
		var live []bool
		if s.r != nil {
			var err error
			if live, err = s.r.check(); err != nil {
				return fmt.Errorf("relation %s: %w", s.name, err)
			}
		}
		for _, ix := range d.indexes(int32(id)) {
			if err := ix.check(s.r, live); err != nil {
				return fmt.Errorf("index (%s,%b): %w", s.name, ix.mask, err)
			}
		}
	}
	return nil
}

// check verifies one index on r (nil if undeclared), whose stored refs
// live marks.
func (ix *Index) check(r *Relation, live []bool) error {
	if ix.rel != r {
		return fmt.Errorf("walks another relation than the store's")
	}
	if r == nil {
		if ix.lists.Len() != 0 {
			return fmt.Errorf("%d lists on an undeclared relation", ix.lists.Len())
		}
		return nil
	}
	nblocks := ix.blocks.N()
	used := make([]bool, uint64(nblocks)+1)
	seen := make([]bool, len(live))
	total, blocks := 0, 0
	var err error
	ix.lists.Range(func(p []Value, l list) bool {
		count, fill := 0, 1+(l.n-1)%blockRefs
		for b := l.head; b != 0 && err == nil; fill = blockRefs {
			if b > nblocks || used[b] {
				err = fmt.Errorf("list %v reaches block %d, never handed out or met before", p, b)
				break
			}
			used[b] = true
			blocks++
			words := ix.block(b)
			for w := uint32(1); w <= fill && err == nil; w++ {
				ref := words[w]
				switch {
				case int(ref) >= len(live) || !live[ref] || int(ref>>chunkShift) >= len(ix.pos):
					err = fmt.Errorf("list %v holds ref %d, which holds no stored tuple", p, ref)
				case seen[ref]:
					err = fmt.Errorf("list %v reaches ref %d twice", p, ref)
				case !projectsTo(r.tuple(ref), ix.mask, p):
					err = fmt.Errorf("files %v under %v", r.tuple(ref), p)
				case *ix.at(ref) != b<<blockBits|w:
					err = fmt.Errorf("list %v: ref %d sits at block %d word %d, the index records %#x", p, ref, b, w, *ix.at(ref))
				}
				seen[ref] = true
				count++
			}
			b = words[0]
		}
		if err == nil && (count == 0 || count != int(l.n)) {
			err = fmt.Errorf("list %v holds %d tuples, counts %d", p, count, l.n)
		}
		total += count
		return err == nil
	})
	switch {
	case err != nil:
	case total != r.Len():
		err = fmt.Errorf("lists hold %d tuples, the relation %d", total, r.Len())
	default:
		err = ix.blocks.CheckFree(used, blocks)
	}
	return err
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
