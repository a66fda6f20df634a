package tuplekey

import (
	"fmt"
	"math"
)

// Arena stores fixed-stride records of words W, addressed by 32-bit refs:
// ref r names the r-th record handed out, and ref 0 is nil, never handed
// out. The records sit in chunks of ArenaChunk that are never moved, so
// a record slice stays valid until the arena is dropped, and, W being a
// plain integer, neither the records nor the refs are Go pointers: the
// garbage collector scans only the chunk directory. A freed record goes on
// a chain, threaded through its word 0, from which the next Alloc takes
// it. The zero Arena has stride 0; NewArena sets one.
type Arena[W ~uint32 | ~uint64 | ~int64] struct {
	chunks [][]W
	stride int
	n      uint32 // refs handed out so far: 1..n
	free   uint32 // head of the chain of freed records, 0 if none
}

// ArenaChunk is the number of records in a chunk of an arena.
const (
	ArenaChunk = 1 << arenaShift
	arenaShift = 10
	arenaMask  = ArenaChunk - 1
)

// NewArena returns an empty arena of records of stride words (at least
// one: word 0 carries the free chain).
func NewArena[W ~uint32 | ~uint64 | ~int64](stride int) Arena[W] {
	if stride < 1 {
		panic("tuplekey: an arena record needs a word")
	}
	return Arena[W]{stride: stride}
}

// N returns the number of refs handed out: the records live or free.
func (a *Arena[W]) N() uint32 { return a.n }

// Chunks returns the number of chunks the arena holds.
func (a *Arena[W]) Chunks() int { return len(a.chunks) }

// FreeHead returns the first record of the free chain, 0 if it is empty.
func (a *Arena[W]) FreeHead() uint32 { return a.free }

// Rec returns record r's words, aliasing the arena and capped at its
// stride.
//
//dyncq:hot
func (a *Arena[W]) Rec(r uint32) []W {
	i := int(r&arenaMask) * a.stride
	return a.chunks[r>>arenaShift][i : i+a.stride : i+a.stride]
}

// Alloc hands out a ref: the head of the free chain, whose record holds
// what it held when freed but for word 0, or else a fresh, all-zero
// record, adding a chunk when the last one is full. Running out of refs
// panics rather than wrap onto nil.
//
//dyncq:hot
func (a *Arena[W]) Alloc() uint32 {
	if r := a.free; r != 0 {
		a.free = uint32(a.Rec(r)[0])
		return r
	}
	if a.n == math.MaxUint32 {
		panic("tuplekey: an arena holds 2^32-1 records, the most a ref can address")
	}
	a.n++
	if int(a.n>>arenaShift) == len(a.chunks) {
		a.chunks = append(a.chunks, make([]W, a.stride<<arenaShift)) //dyncq:allow hotalloc one allocation per chunk of ArenaChunk records
	}
	return a.n
}

// Free puts record r on the free chain, overwriting its word 0.
//
//dyncq:hot
func (a *Arena[W]) Free(r uint32) {
	a.Rec(r)[0] = W(a.free)
	a.free = r
}

// CheckFree audits the free chain against the records the caller holds:
// live, indexed by ref, marks the stored ones, stored of them. Every ref on
// the chain must have been handed out and not be stored, the chain must
// end, and the stored and free records must add up to the refs handed
// out. Intended for invariant audits; its cost is linear in the arena.
func (a *Arena[W]) CheckFree(live []bool, stored int) error {
	free := 0
	for r := a.free; r != 0; r = uint32(a.Rec(r)[0]) {
		switch free++; {
		case r > a.n:
			return fmt.Errorf("free chain: ref %d was never handed out (%d were)", r, a.n)
		case int(r) < len(live) && live[r]:
			return fmt.Errorf("free chain: ref %d is stored", r)
		case free > int(a.n):
			return fmt.Errorf("free chain: a cycle through ref %d", r)
		}
	}
	if stored+free != int(a.n) {
		return fmt.Errorf("arena: %d stored + %d free records of %d handed out", stored, free, a.n)
	}
	return nil
}
