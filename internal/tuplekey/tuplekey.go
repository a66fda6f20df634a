// Package tuplekey provides hashing and the engine's two storage
// primitives for tuples of int64 constants: hash tables and record arenas.
//
// The paper's RAM model (Section 2, footnote 2) assumes d-ary arrays A_v
// indexed by tuples of domain elements with constant-time access, and notes
// that "for an implementation on real-world computers one would probably
// have to resort to ... suitably designed hash functions". RefTable is
// that replacement: a linear-probing slot array, one word per slot, a ref
// and 32 hash bits, whose keys live in records of the caller's — a stored
// tuple of the dynamic database (internal/dyndb), an item of the dynamic
// engine's A_v arrays (internal/core, index.go), a command of the batch
// coalescer. Table is a RefTable over dense entry arrays of its own, for
// keys that live nowhere else: an eval index's key → list map and every
// materialised result set. A delete shifts the rest of its probe run back
// (Knuth's Algorithm R) instead of leaving a tombstone, and growth and
// shifts place entries from the kept hash bits, never rehashing a key, so
// only live entries fill a table: one under steady insert/delete churn
// keeps its size.
//
// Arena is the records' side of the same model: fixed-stride,
// pointer-free records in chunks that never move, addressed by 32-bit
// refs (0 is nil), with freed records on a chain for the next allocation.
package tuplekey

// Hash returns a 64-bit hash of the tuple: Extend folded over its
// elements from a seed that depends on its length, so tuples differing in
// any single position or in length hash differently with high
// probability. The function is deterministic across runs.
func Hash(key []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ (uint64(len(key)) * 0xff51afd7ed558ccd)
	for _, x := range key {
		h = Extend(h, x)
	}
	return h
}

// Extend folds one more element into the running hash h: x is diffused
// with a splitmix64-style finaliser, then mixed into h.
func Extend(h uint64, x int64) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	h ^= z
	h *= 0xc2b2ae3d27d4eb4f
	return h ^ h>>29
}

// Equal reports whether two tuples have the same length and elements.
func Equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// Table is a hash table from int64 tuples of one fixed arity to values of
// type V. Its entries are dense: entry i's key is keys[i*arity :
// (i+1)*arity] of one flat array and its value vals[i], so a stored tuple
// costs 8·arity bytes, the value and one slot word, and no heap object;
// when V holds no pointers the whole table is invisible to the garbage
// collector's mark phase. The slots are a RefTable whose ref is the entry's
// index plus one. Arity 0 is legal (the one possible key is the empty
// tuple — a Boolean query's head). A Delete frees the entry's slot and
// moves the last entry into the hole, re-pointing that entry's one slot.
//
// Put and Ref copy the key into the table; the caller keeps ownership of
// the slice it passed. The key slices handed out by Range and Keys alias
// the table: they are valid until the table's next mutation and must be
// copied to be retained, and a pointer from Ref or Ptr is valid until then
// too — a Delete of another key may move the entry. Get and Delete of a
// key whose length is not the table's arity miss; Put and Ref of one
// panic.
type Table[V any] struct {
	arity int
	slots RefTable
	keys  []int64 // entry i's key at keys[i*arity:]
	vals  []V     // entry i's value
}

// NewTable returns an empty table for keys of the given arity.
func NewTable[V any](arity int) *Table[V] {
	if arity < 0 {
		panic("tuplekey: negative arity")
	}
	return &Table[V]{arity: arity}
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return len(t.vals) }

// find looks up key, of hash h and the table's arity. If it is present,
// find returns its slot and entry; otherwise entry -1 and the slot an
// insert claims.
//
//dyncq:hot
func (t *Table[V]) find(key []int64, h uint64) (slot uint32, entry int) {
	s := t.slots.Slots
	if len(s) == 0 {
		return 0, -1
	}
	mask := uint32(len(s) - 1)
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		w := s[i]
		if w == 0 {
			return i, -1
		}
		if uint32(w>>32) == uint32(h) {
			if e := int(uint32(w)) - 1; Equal(t.keys[e*t.arity:(e+1)*t.arity], key) {
				return i, e
			}
		}
	}
}

// lookup is find for any key: a key of another length than the table's
// arity, like any key of an empty table, is absent (entry -1).
//
//dyncq:hot
func (t *Table[V]) lookup(key []int64) (slot uint32, entry int) {
	if len(t.vals) == 0 || len(key) != t.arity {
		return 0, -1
	}
	return t.find(key, Hash(key))
}

// Has reports whether key is present.
func (t *Table[V]) Has(key []int64) bool {
	_, e := t.lookup(key)
	return e >= 0
}

// Get returns the value stored under key.
func (t *Table[V]) Get(key []int64) (V, bool) {
	if _, e := t.lookup(key); e >= 0 {
		return t.vals[e], true
	}
	var zero V
	return zero, false
}

// Ptr returns a pointer to the value stored under key, nil if key is
// absent. The pointer is valid until the table's next mutation.
//
//dyncq:hot
func (t *Table[V]) Ptr(key []int64) *V {
	if _, e := t.lookup(key); e >= 0 {
		return &t.vals[e]
	}
	return nil
}

// Ref returns a pointer to the value stored under key, first inserting
// the zero value if key is absent (existed reports which): one probe for
// what Get followed by Put would take two. The pointer is valid until the
// table's next mutation.
//
//dyncq:hot
func (t *Table[V]) Ref(key []int64) (val *V, existed bool) {
	_, e, existed := t.ref(key)
	return &t.vals[e], existed
}

// ref is Ref returning the slot and the entry: the one get-or-insert
// probe, growing the slots first if an insert could cross the load limit.
// An absent key becomes the last entry and takes the empty slot that ends
// its probe run.
//
//dyncq:hot
func (t *Table[V]) ref(key []int64) (slot uint32, e int, existed bool) {
	if len(key) != t.arity {
		panic("tuplekey: key length differs from the table's arity")
	}
	t.slots.Reserve()
	h := Hash(key)
	if slot, e = t.find(key, h); e >= 0 {
		return slot, e, true
	}
	e = len(t.vals)
	var zero V
	t.keys = append(t.keys, key...) //dyncq:allow hotalloc the entry arrays double as the table grows, as its slots do
	t.vals = append(t.vals, zero)   //dyncq:allow hotalloc the entry arrays double as the table grows, as its slots do
	t.slots.Put(slot, h, uint32(e+1))
	return slot, e, false
}

// AddCount adds d to the count under key, inserting key at d if it is
// absent, and deletes it if the count reaches zero; it reports whether
// key was present before. It is one probe where Ref followed by Delete
// takes two, and it leaves the table exactly as they would: the same
// slots and entries, so Range order is unchanged.
//
//dyncq:hot
func AddCount(t *Table[int64], key []int64, d int64) (wasPresent bool) {
	slot, e, wasPresent := t.ref(key)
	if t.vals[e] += d; t.vals[e] == 0 {
		t.free(slot, e)
	}
	return wasPresent
}

// Put stores val under a copy of key, replacing any existing entry.
func (t *Table[V]) Put(key []int64, val V) {
	p, _ := t.Ref(key)
	*p = val
}

// Delete removes the entry under key, reporting whether it was present.
//
//dyncq:hot
func (t *Table[V]) Delete(key []int64) bool {
	slot, e := t.lookup(key)
	if e < 0 {
		return false
	}
	t.free(slot, e)
	return true
}

// free deletes entry e, whose slot is slot: the RefTable frees the slot,
// and the last entry moves into e, so the entries stay dense. A probe from
// the moved key's home finds its one slot by the word alone, ref and hash
// bits, and re-points it at e; that key is the only one a delete hashes.
//
//dyncq:hot
func (t *Table[V]) free(slot uint32, e int) {
	t.slots.Free(slot)
	a, last := t.arity, len(t.vals)-1
	if e != last {
		key := t.keys[last*a : (last+1)*a]
		s, h := t.slots.Slots, Hash(key)
		mask, want := uint32(len(s)-1), uint64(uint32(h))<<32|uint64(last+1)
		i := uint32(h) & mask
		for s[i] != want {
			i = (i + 1) & mask
		}
		s[i] = want&^0xffffffff | uint64(e+1)
		copy(t.keys[e*a:], key)
		t.vals[e] = t.vals[last]
	}
	var zero V
	t.vals[last] = zero
	t.keys, t.vals = t.keys[:last*a], t.vals[:last]
}

// Range calls fn for every entry until fn returns false, in entry order
// (unspecified, but a function of the insert/delete history alone). The
// key slice aliases the table and is capped at its arity: copy it to keep
// it past the table's next mutation. The table must not be modified
// during Range.
func (t *Table[V]) Range(fn func(key []int64, val V) bool) {
	a := t.arity
	for i, v := range t.vals {
		if !fn(t.keys[i*a:(i+1)*a:(i+1)*a], v) {
			return
		}
	}
}

// Keys is Range without the values: it calls fn for every key until fn
// returns false and reports whether it ran to the end. The same aliasing
// rule applies.
func (t *Table[V]) Keys(fn func(key []int64) bool) bool {
	a := t.arity
	for i := range t.vals {
		if !fn(t.keys[i*a : (i+1)*a : (i+1)*a]) {
			return false
		}
	}
	return true
}

// Reset empties the table for reuse as scratch, keeping its arrays by
// RefTable.Reset's rule: a large table filled to under an eighth drops
// them.
func (t *Table[V]) Reset() {
	clear(t.vals)
	if t.slots.Reset() {
		t.keys, t.vals = t.keys[:0], t.vals[:0]
	} else {
		t.keys, t.vals = nil, nil
	}
}
