package core

// This file holds itemIndex, the engine's "array A_v" (Section 6.2): per
// node v, the map from a path α·a to the item [v, α, a]. Footnote 2 of the
// paper allows a hash table; this one is open addressing with linear
// probing over a control-byte array, like tuplekey.Table, but it keeps no
// key. The record already names its path — it holds its own constant a,
// and its parent ref fixes α — so a slot is the control byte plus one
// word:
//
//	ctrl[i]   slotEmpty, or slotFull | the top 7 bits of the path hash
//	words[i]  the item's ref (low 32) | the low 32 bits of the path hash
//	          (high 32)
//
// The path hash of α·a is tuplekey.Extend(hash(α), a), so the writer
// hashes every depth of an atom's path from the tuple alone and no depth's
// probe waits for the one above. A probe compares the tag, then the hash
// bits, and only then the record the update procedure reads anyway: its
// own constant and its parent ref. A path's home slot is the low bits of its
// hash, so growth and deletion place items from the hash bits in the
// words, never from the records. A delete shifts the rest of its probe
// run back (Knuth's Algorithm R) rather than leaving a tombstone: no empty
// slot lies between an item's home and its slot, and a node under steady
// churn keeps its table.

const (
	slotEmpty uint8 = 0
	slotFull  uint8 = 0x80

	minSlots = 8
	hashBits = 1<<32 - 1 // the path-hash bits a word keeps
)

// pathSeed is the hash of the empty path; tuplekey.Extend folds one more
// path value in.
const pathSeed uint64 = 0x9e3779b97f4a7c15

// tag is the control byte of a full slot holding a path of hash h.
func tag(h uint64) uint8 { return slotFull | uint8(h>>57) }

// itemIndex is one node's A_v: a hash table from paths to item refs whose
// keys are the records themselves.
type itemIndex struct {
	ctrl  []uint8
	words []uint64 // ref | hash bits<<32, for the full slots
	n     int      // live items
}

// probe looks up the item with path hash h, own constant own and parent
// ref parent among the records of ar (own constant at word offOwn). If it
// is present, probe returns its slot and ref; otherwise ref 0 and the slot
// an insert claims: the empty slot that ends the probe run. An insert
// calls reserve first.
//
//dyncq:hot
func (x *itemIndex) probe(h uint64, ar *arena, offOwn int32, own Value, parent ref) (slot uint32, r ref) {
	if len(x.ctrl) == 0 {
		return 0, 0
	}
	mask := uint32(len(x.ctrl) - 1)
	want, bits := tag(h), h<<32
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		switch c := x.ctrl[i]; {
		case c == want:
			if w := x.words[i]; w&^hashBits == bits {
				if it := ar.rec(lo(w)); Value(it[offOwn]) == own && it.parent() == parent {
					return i, lo(w)
				}
			}
		case c == slotEmpty:
			return i, 0
		}
	}
}

// reserve makes room for one insert, doubling the table when it could
// cross the 3/4 load limit. It moves slots, so it comes before the probe
// whose slot the insert claims.
//
//dyncq:hot
func (x *itemIndex) reserve() {
	if (x.n+1)*4 > len(x.ctrl)*3 {
		x.grow()
	}
}

// put fills the slot a probe returned for a missing path of hash h.
//
//dyncq:hot
func (x *itemIndex) put(slot uint32, h uint64, r ref) {
	x.ctrl[slot] = tag(h)
	x.words[slot] = uint64(r) | h<<32
	x.n++
}

// free empties the live slot a probe returned by backward shift: it walks
// the run after the hole up to the first empty slot and moves back each
// item whose home slot is not cyclically in (hole, j], so the hole moves
// to j; an item whose home is in that range stays and the walk goes on.
// The last hole becomes empty. Homes come from the words' hash bits; no
// record is read. Other slots of this table move, so a caller frees at
// most one slot it recorded before the free.
//
//dyncq:hot
func (x *itemIndex) free(slot uint32) {
	x.n--
	mask := uint32(len(x.ctrl) - 1)
	for j := (slot + 1) & mask; x.ctrl[j] != slotEmpty; j = (j + 1) & mask {
		if w := x.words[j]; (j-uint32(w>>32))&mask >= (j-slot)&mask {
			x.ctrl[slot], x.words[slot] = x.ctrl[j], w
			slot = j
		}
	}
	x.ctrl[slot] = slotEmpty
}

// grow rehashes into a table twice the size (minSlots for the first
// insert). The words' hash bits say where each item goes; no record is
// read.
func (x *itemIndex) grow() {
	size := max(2*len(x.ctrl), minSlots)
	oldCtrl, oldWords := x.ctrl, x.words
	x.ctrl, x.words = make([]uint8, size), make([]uint64, size)
	mask := uint32(size - 1)
	for i, c := range oldCtrl {
		if c < slotFull {
			continue
		}
		w := oldWords[i]
		j := uint32(w>>32) & mask
		for x.ctrl[j] != slotEmpty {
			j = (j + 1) & mask
		}
		x.ctrl[j], x.words[j] = c, w // the tag is a function of the hash, not of the size
	}
}

// gap returns the first empty slot between the home slot of the item in
// full slot i and slot i, or -1 if its probe run is unbroken, as backward
// shift keeps it. CheckInvariants and the tests call it.
func (x *itemIndex) gap(i int) int {
	mask := len(x.ctrl) - 1
	for j := int(x.words[i]>>32) & mask; j != i; j = (j + 1) & mask {
		if x.ctrl[j] == slotEmpty {
			return j
		}
	}
	return -1
}

// at returns the item in slot i, 0 if the slot is not full.
func (x *itemIndex) at(i int) ref {
	if x.ctrl[i] < slotFull {
		return 0
	}
	return lo(x.words[i])
}
