// Package tuplekey provides hashing and a fixed-arity open-addressing hash
// table for tuples of int64 constants.
//
// The paper's RAM model (Section 2, footnote 2) assumes d-ary arrays A_v
// indexed by tuples of domain elements with constant-time access, and notes
// that "for an implementation on real-world computers one would probably
// have to resort to ... suitably designed hash functions". Table is exactly
// that replacement: a linear-probing open-addressing table keyed by int64
// tuples of one fixed arity with expected O(1) lookup, insert and delete.
// It is the batch coalescer, the key → list map of an eval index and every
// materialised result set. Where the keys already sit in records of their
// own — a stored tuple of the dynamic database (internal/dyndb), an item
// of the dynamic engine's A_v arrays (internal/core, index.go) — the same
// probing scheme runs over a RefTable instead: one word per slot, a ref
// and hash bits, and no key array. In both, a delete shifts the rest of
// its probe run back (Knuth's Algorithm R) instead of leaving a tombstone,
// so only live entries fill a table: one under steady insert/delete churn
// keeps its size and never rehashes.
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

// Control bytes: a slot is empty, or full and carrying slotFull plus the
// top seven bits of its key's hash (the slot index uses the low bits), so
// a probe rejects almost every slot holding a different key without
// reading the key array.
const (
	slotEmpty uint8 = 0
	slotFull  uint8 = 0x80
)

// Table is a hash table from int64 tuples of one fixed arity to values of
// type V, with open addressing and linear probing. Keys are stored inline:
// slot i owns keys[i*arity : (i+1)*arity] of one flat array, so a stored
// tuple costs 8·arity bytes and no heap object, and when V holds no
// pointers the whole table is invisible to the garbage collector's mark
// phase. Arity 0 is legal (the one possible key is the empty tuple — a
// Boolean query's head). Every key sits in the probe run that starts at
// its home slot, the low bits of its hash: no empty slot lies between the
// two, and a Delete keeps it so by moving later entries of the run back.
//
// Put and Ref copy the key into the table; the caller keeps ownership of
// the slice it passed. The key slices handed out by Range alias the table:
// they are valid until the table's next mutation and must be copied to be
// retained, and a pointer from Ref is valid until then too — a Delete of
// another key may move the entry. Get and Delete of a key whose length is
// not the table's arity miss; Put and Ref of one panic.
type Table[V any] struct {
	arity int
	ctrl  []uint8
	keys  []int64 // len(ctrl) × arity
	vals  []V
	n     int // live entries
}

// NewTable returns an empty table for keys of the given arity.
func NewTable[V any](arity int) *Table[V] {
	if arity < 0 {
		panic("tuplekey: negative arity")
	}
	return &Table[V]{arity: arity}
}

// Len returns the number of live entries.
func (t *Table[V]) Len() int { return t.n }

// find returns the slot holding key, or -1.
//
//dyncq:hot
func (t *Table[V]) find(key []int64) int {
	if t.n == 0 || len(key) != t.arity {
		return -1
	}
	h := Hash(key)
	want := slotFull | uint8(h>>57)
	mask := uint64(len(t.ctrl) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch c := t.ctrl[i]; {
		case c == want:
			if t.keyIs(i, key) {
				return int(i)
			}
		case c == slotEmpty:
			return -1
		}
	}
}

// keyIs reports whether slot i holds key (of the table's arity).
func (t *Table[V]) keyIs(i uint64, key []int64) bool {
	stored := t.keys[int(i)*t.arity:][:len(key)]
	for j, x := range key {
		if stored[j] != x {
			return false
		}
	}
	return true
}

// Has reports whether key is present.
func (t *Table[V]) Has(key []int64) bool { return t.find(key) >= 0 }

// Get returns the value stored under key.
func (t *Table[V]) Get(key []int64) (V, bool) {
	if i := t.find(key); i >= 0 {
		return t.vals[i], true
	}
	var zero V
	return zero, false
}

// Ptr returns a pointer to the value stored under key, nil if key is
// absent. The pointer is valid until the table's next mutation.
//
//dyncq:hot
func (t *Table[V]) Ptr(key []int64) *V {
	if i := t.find(key); i >= 0 {
		return &t.vals[i]
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
	i, existed := t.ref(key)
	return &t.vals[i], existed
}

// ref is Ref returning the slot: the one get-or-insert probe, growing
// first if an insert could cross the load limit. An absent key takes the
// empty slot that ends its probe run.
//
//dyncq:hot
func (t *Table[V]) ref(key []int64) (slot int, existed bool) {
	if len(key) != t.arity {
		panic("tuplekey: key length differs from the table's arity")
	}
	if (t.n+1)*4 > len(t.ctrl)*3 {
		t.grow()
	}
	h := Hash(key)
	want := slotFull | uint8(h>>57)
	mask := uint64(len(t.ctrl) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch c := t.ctrl[i]; {
		case c == want:
			if t.keyIs(i, key) {
				return int(i), true
			}
		case c == slotEmpty:
			t.ctrl[i] = want
			copy(t.keys[int(i)*t.arity:], key)
			t.n++
			return int(i), false
		}
	}
}

// AddCount adds d to the count under key, inserting key at d if it is
// absent, and frees the slot if the count reaches zero; it reports
// whether key was present before. It is one probe where Ref followed by
// Delete takes two, and it leaves the table exactly as they would: the
// same slots, after the same backward shift, and Len, so Range order is
// unchanged.
//
//dyncq:hot
func AddCount(t *Table[int64], key []int64, d int64) (wasPresent bool) {
	i, wasPresent := t.ref(key)
	if t.vals[i] += d; t.vals[i] == 0 {
		t.free(i)
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
	i := t.find(key)
	if i < 0 {
		return false
	}
	t.free(i)
	return true
}

// free empties the live slot i by backward shift (Knuth's Algorithm R):
// it walks the run after i up to the first empty slot and moves each entry
// whose home slot is not cyclically in (i, j] back into the hole, which
// then moves to j; an entry whose home is in (i, j] stays, and the walk
// goes on past it. The last hole becomes empty, so every key stays
// reachable from its home without a tombstone. A home slot is recomputed
// from the stored key.
//
//dyncq:hot
func (t *Table[V]) free(i int) {
	t.n--
	a, mask := t.arity, len(t.ctrl)-1
	for j := (i + 1) & mask; t.ctrl[j] != slotEmpty; j = (j + 1) & mask {
		key := t.keys[j*a : (j+1)*a]
		if home := int(Hash(key)) & mask; (j-home)&mask >= (j-i)&mask {
			t.ctrl[i] = t.ctrl[j]
			copy(t.keys[i*a:], key)
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.ctrl[i] = slotEmpty
	var zero V
	t.vals[i] = zero
}

// Range calls fn for every entry until fn returns false, in slot order
// (unspecified, but a function of the insert/delete history alone). The
// key slice aliases the table and is capped at its arity: copy it to keep
// it past the table's next mutation. The table must not be modified
// during Range.
func (t *Table[V]) Range(fn func(key []int64, val V) bool) {
	a := t.arity
	for i, c := range t.ctrl {
		if c >= slotFull && !fn(t.keys[i*a:(i+1)*a:(i+1)*a], t.vals[i]) {
			return
		}
	}
}

// Keys is Range without the values: it calls fn for every key until fn
// returns false and reports whether it ran to the end. The same aliasing
// rule applies.
func (t *Table[V]) Keys(fn func(key []int64) bool) bool {
	a := t.arity
	for i, c := range t.ctrl {
		if c >= slotFull && !fn(t.keys[i*a:(i+1)*a:(i+1)*a]) {
			return false
		}
	}
	return true
}

// Reset empties the table for reuse as scratch, keeping the slot arrays —
// unless they are large and were filled to under an eighth, so the cost of
// a Reset follows the sizes the table is used at, not the largest it ever
// saw (one bulk batch must not tax every small commit after it).
func (t *Table[V]) Reset() {
	if len(t.ctrl) > resetKeep && t.n*8 < len(t.ctrl) {
		t.ctrl, t.keys, t.vals = nil, nil, nil
	} else {
		clear(t.ctrl)
		clear(t.vals)
	}
	t.n = 0
}

const (
	minCap = 8
	// resetKeep is the slot count up to which Reset always keeps the
	// arrays: clearing them costs less than growing them back.
	resetKeep = 1024
)

// grow rehashes into a table twice the size (minCap slots for the first
// insert). Only live entries fill a table, so a table at its load limit is
// one that holds that many keys.
func (t *Table[V]) grow() {
	newCap := max(2*len(t.ctrl), minCap)
	oldCtrl, oldKeys, oldVals := t.ctrl, t.keys, t.vals
	a := t.arity
	t.ctrl = make([]uint8, newCap)
	t.keys = make([]int64, newCap*a)
	t.vals = make([]V, newCap)
	mask := uint64(newCap - 1)
	for i, c := range oldCtrl {
		if c < slotFull {
			continue
		}
		key := oldKeys[i*a : (i+1)*a]
		j := Hash(key) & mask
		for t.ctrl[j] != slotEmpty {
			j = (j + 1) & mask
		}
		t.ctrl[j] = c // the tag is a function of the hash, not of the capacity
		copy(t.keys[int(j)*a:], key)
		t.vals[j] = oldVals[i]
	}
}
