package core

import "dyncq/internal/tuplekey"

// This file holds itemIndex, the engine's "array A_v" (Section 6.2): per
// node v, the map from a path α·a to the item [v, α, a]. Footnote 2 of the
// paper allows a hash table; this one is a tuplekey.RefTable, the slot
// array the store's relations use too: open addressing with linear
// probing, one word per slot,
//
//	the item's ref (low 32) | the low 32 bits of the path hash (high 32)
//
// and no key. The record already names its path — it holds its own
// constant a, and its parent ref fixes α. The path hash of α·a is
// tuplekey.Extend(hash(α), a), so the writer hashes every depth of an
// atom's path from the tuple alone and no depth's probe waits for the one
// above. A probe compares the hash bits, and only then the record the
// update procedure reads anyway: its own constant and its parent ref.
// Growth and deletion (backward shift, no tombstones) place items from the
// hash bits in the words, never from the records, so a node under steady
// churn keeps its table.

const hashBits = 1<<32 - 1 // the path-hash bits a word keeps

// pathSeed is the hash of the empty path; tuplekey.Extend folds one more
// path value in.
const pathSeed uint64 = 0x9e3779b97f4a7c15

// itemIndex is one node's A_v: a hash table from paths to item refs whose
// keys are the records themselves. An insert calls Reserve before its
// probe and Put after; a delete calls Free on the slot its probe found.
type itemIndex struct{ tuplekey.RefTable }

// probe looks up the item with path hash h, own constant own and parent
// ref parent among the records of ar (own constant at word offOwn). If it
// is present, probe returns its slot and ref; otherwise ref 0 and the slot
// an insert claims: the empty slot that ends the probe run.
//
//dyncq:hot
func (x *itemIndex) probe(h uint64, ar *arena, offOwn int32, own Value, parent ref) (slot uint32, r ref) {
	s := x.Slots
	if len(s) == 0 {
		return 0, 0
	}
	mask := uint32(len(s) - 1)
	bits := h << 32
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		w := s[i]
		if w == 0 {
			return i, 0
		}
		if w&^hashBits == bits {
			if it := ar.rec(lo(w)); Value(it[offOwn]) == own && it.parent() == parent {
				return i, lo(w)
			}
		}
	}
}

// at returns the item in slot i, 0 if the slot is empty.
func (x *itemIndex) at(i int) ref { return lo(x.Slots[i]) }
