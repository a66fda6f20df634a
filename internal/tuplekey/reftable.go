package tuplekey

// RefTable is the slot array of a hash table whose keys live elsewhere:
// in records addressed by 32-bit refs, ref 0 being nil. A slot is one
// word,
//
//	ref (low 32) | the low 32 bits of the key's hash (high 32)
//
// and 0 marks it empty. A key's home slot is the low bits of its hash, so
// growth and deletion place entries from the kept bits alone and never
// read a record. RefTable keeps no key array and no control bytes: the
// relation storage and the batch coalescer of the dynamic database
// (internal/dyndb), the engine's A_v arrays (internal/core) and Table
// all key it by records of their own.
//
// The probe loop, and the key match it ends with, stays at the caller,
// which owns the records: start at uint32(h) & (len(Slots)-1), step by
// one modulo the size, stop at an empty slot (the key is absent, and an
// insert claims that slot) or at a word whose high half is uint32(h) and
// whose record matches. An insert calls Reserve before its probe, since
// growth moves slots. A Free shifts the rest of its probe run back
// (Knuth's Algorithm R) rather than leaving a tombstone: no empty slot
// lies between an entry's home and its slot, and a table under steady
// churn keeps its size.
type RefTable struct {
	Slots []uint64 // a power of two of them, or none
	n     int      // full slots
}

// minRefSlots is the size of a RefTable's first slot array.
const minRefSlots = 8

// Len returns the number of full slots.
func (t *RefTable) Len() int { return t.n }

// Reserve makes room for one insert, doubling the table when it could
// cross the 3/4 load limit.
//
//dyncq:hot
func (t *RefTable) Reserve() {
	if (t.n+1)*4 > len(t.Slots)*3 {
		t.grow()
	}
}

// Put fills the empty slot a probe for a key of hash h ended at with ref
// r (nonzero).
//
//dyncq:hot
func (t *RefTable) Put(slot uint32, h uint64, r uint32) {
	t.Slots[slot] = uint64(r) | h<<32
	t.n++
}

// Free empties a full slot by backward shift: it walks the run after the
// hole up to the first empty slot and moves back each entry whose home is
// not cyclically in (hole, j], so the hole moves to j; an entry whose home
// is in that range stays and the walk goes on. The last hole becomes
// empty. Other slots move, so a caller frees at most one slot it found
// before the Free.
//
//dyncq:hot
func (t *RefTable) Free(slot uint32) {
	t.n--
	s := t.Slots
	mask := uint32(len(s) - 1)
	for j := (slot + 1) & mask; s[j] != 0; j = (j + 1) & mask {
		if w := s[j]; (j-uint32(w>>32))&mask >= (j-slot)&mask {
			s[slot] = w
			slot = j
		}
	}
	s[slot] = 0
}

// Reset empties the table for reuse, keeping the slot array — unless it
// is large and was filled to under an eighth, so the cost of a Reset
// follows the sizes the table is used at, not the largest it ever saw
// (one bulk batch must not tax every small commit after it). It reports
// whether it kept the array.
func (t *RefTable) Reset() (kept bool) {
	kept = len(t.Slots) <= resetKeep || t.n*8 >= len(t.Slots)
	if kept {
		clear(t.Slots)
	} else {
		t.Slots = nil
	}
	t.n = 0
	return kept
}

// resetKeep is the slot count up to which Reset always keeps the array:
// clearing it costs less than growing it back.
const resetKeep = 1024

// grow rehashes into a table twice the size (minRefSlots for the first
// insert), from the kept hash bits. It stays out of line so that Reserve,
// on every insert's path, inlines.
//
//go:noinline
func (t *RefTable) grow() {
	old := t.Slots
	t.Slots = make([]uint64, max(2*len(old), minRefSlots))
	mask := uint32(len(t.Slots) - 1)
	for _, w := range old {
		if w == 0 {
			continue
		}
		j := uint32(w>>32) & mask
		for t.Slots[j] != 0 {
			j = (j + 1) & mask
		}
		t.Slots[j] = w
	}
}

// Gap returns the first empty slot between the home of the entry in full
// slot i and slot i, or -1 if its probe run is unbroken, as backward
// shift keeps it. Invariant audits call it.
func (t *RefTable) Gap(i int) int {
	mask := len(t.Slots) - 1
	for j := int(t.Slots[i]>>32) & mask; j != i; j = (j + 1) & mask {
		if t.Slots[j] == 0 {
			return j
		}
	}
	return -1
}
