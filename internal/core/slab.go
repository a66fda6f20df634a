package core

import (
	"fmt"
	"math"
)

// This file holds the engine's dynamic state: one arena of fixed-stride,
// pointer-free records per (component, shard, q-tree node). An item
// [v, α, a] is one record of v's arena, addressed by a ref — the record's
// number, with 0 for nil. The paper's RAM has O(log n)-bit words and its
// pointers are array indices (§2); so are these. Every shape (how many
// C^i_ψ, how many child lists) is a constant of the node, so the layout is
// computed once per cnode (layout) and a record is, in uint64 words:
//
//	recLinks      prev (low 32) | next (high 32): the siblings of a fit
//	              list live in the same arena, so the node is implied
//	recUp         parent (low 32, a ref into the parent node's arena) |
//	              inList (bit 32)
//	recWeight     C^i
//	recFWeight    C̃^i — free nodes only
//	offOwn        the item's own constant a; α is the A_v table's inline
//	              key and is not stored a second time
//	offCounts…    C^i_ψ per tracked atom (numTracked words)
//	offSums…      C^i_u per child u (len(children) words)
//	offFSums…     C̃^i_u per free child — free nodes only
//	offLists…     per child u: head (low 32) | tail (high 32) of L^i_u,
//	              refs into u's arena
//
// A ref means something only together with its (shard, node): the A_v
// table that yields it, the parent word or list word it was read from, or
// the compIter state it sits in all fix both.
//
// An arena grows by chunks of 1<<arenaShift records and never moves a
// record, so a record slice stays valid until Clear. An item leaves the
// structure only when every C^i_ψ is zero — it is then unfit, unlinked and
// childless — and its record goes on the arena's free chain (threaded
// through the next half of recLinks) for the next item of the same node;
// steady churn reuses records instead of growing. Clear, and with it
// Rebuild, drops every chunk at once. Since neither the records nor the
// Table[ref] indexes hold a Go pointer, the garbage collector never scans
// them: what it marks per cycle is the chunk directory, not the data.
//
// Concurrency: an arena belongs to one compShard and inherits its
// discipline — the parallel batch path claims whole (component, shard)
// buckets per worker, so no two goroutines touch one arena concurrently.

// ref addresses a record of one arena; 0 is nil. An arena therefore holds
// at most 2³²−1 live items — per node, per shard.
type ref uint32

// record is one item's words, aliasing its arena.
type record []uint64

const (
	arenaShift = 10 // records per chunk, as a power of two
	arenaMask  = 1<<arenaShift - 1

	recLinks   = 0
	recUp      = 1
	recWeight  = 2
	recFWeight = 3
	inListBit  = 1 << 32
)

// lo and hi unpack the two refs of a links or list word; pack builds one.
func lo(w uint64) ref       { return ref(w) }
func hi(w uint64) ref       { return ref(w >> 32) }
func pack(l, h ref) uint64  { return uint64(l) | uint64(h)<<32 }
func (it record) prev() ref { return lo(it[recLinks]) }
func (it record) next() ref { return hi(it[recLinks]) }

// parent is the ref of the item's parent in the parent node's arena.
func (it record) parent() ref { return lo(it[recUp]) }

// inList tells whether the item is linked into its fit list.
func (it record) inList() bool { return it[recUp]&inListBit != 0 }

// layout fixes the node's record layout from its shape.
func (nd *cnode) layout() {
	nd.offOwn = recFWeight
	if nd.free {
		nd.offOwn++
	}
	nd.offCounts = nd.offOwn + 1
	nd.offSums = nd.offCounts + nd.numTracked
	nd.offFSums = nd.offSums + int32(len(nd.children))
	nd.offLists = nd.offFSums
	if nd.free {
		nd.offLists += nd.freeChildCount
	}
	nd.stride = nd.offLists + int32(len(nd.children))
}

// arena stores the records of one node in one shard.
type arena struct {
	chunks [][]uint64 // 1<<arenaShift records each; slot 0 of chunk 0 is nil's
	stride int
	n      uint32 // records handed out so far: refs 1..n exist
	free   ref    // head of the chain of dropped records
}

// rec resolves a ref.
//
//dyncq:hot
func (a *arena) rec(r ref) record {
	i := int(r&arenaMask) * a.stride
	return a.chunks[r>>arenaShift][i : i+a.stride : i+a.stride]
}

// fresh hands out a ref no item has used, adding a chunk when the last
// one is full. Running out of refs must not wrap onto nil.
//
//dyncq:hot
func (a *arena) fresh(nd *cnode) ref {
	if a.n == math.MaxUint32 {
		panic(fmt.Sprintf("core: node %s holds 2^32-1 items in one shard, the most a ref can address", nd.name))
	}
	a.n++
	if int(a.n>>arenaShift) == len(a.chunks) {
		a.chunks = append(a.chunks, make([]uint64, a.stride<<arenaShift)) //dyncq:allow hotalloc one allocation per chunk of 1<<arenaShift items
	}
	return ref(a.n)
}

// alloc returns an all-zero, unlinked item of node nd with the given own
// constant and parent: a recycled record if the free chain has one, a
// fresh one otherwise.
//
//dyncq:hot
func (a *arena) alloc(nd *cnode, own Value, parent ref) ref {
	r := a.free
	var it record
	if r != 0 {
		it = a.rec(r)
		a.free = it.next()
		clear(it)
	} else {
		r = a.fresh(nd)
		it = a.rec(r)
	}
	it[recUp] = uint64(parent)
	it[nd.offOwn] = uint64(own)
	return r
}

// recycle puts a dropped item (all counts zero: unfit, unlinked,
// childless by invariant (a)) on the free chain.
//
//dyncq:hot
func (a *arena) recycle(r ref, it record) {
	it[recLinks] = pack(0, a.free)
	a.free = r
}

// MaskFreeChainHeads corrupts the engine on purpose: it masks the chunk
// bits off every free-chain head past its arena's first chunk, so the
// head names a record of chunk 0 instead, and returns how many heads it
// moved. It lets tests of the layers above, which cannot reach the
// arenas, check that their invariant audits do (CheckInvariants reports
// the moved head). Never call it on an engine still in use.
func (e *Engine) MaskFreeChainHeads() int {
	moved := 0
	for _, c := range e.comps {
		for si := range c.shards {
			for ai := range c.shards[si].arenas {
				if a := &c.shards[si].arenas[ai]; a.free > arenaMask {
					a.free &= arenaMask
					moved++
				}
			}
		}
	}
	return moved
}

// link appends item r of arena a to the tail of the fit list whose
// head|tail word is *list: a word of the parent's record, or the shard's
// start word for a root item.
//
//dyncq:hot
func (a *arena) link(list *uint64, r ref, it record) {
	tail := hi(*list)
	it[recLinks] = pack(tail, 0)
	if tail != 0 {
		t := a.rec(tail)
		t[recLinks] = pack(t.prev(), r)
		*list = pack(lo(*list), r)
	} else {
		*list = pack(r, r)
	}
	it[recUp] |= inListBit
}

// unlink removes it from the list whose head|tail word is *list.
//
//dyncq:hot
func (a *arena) unlink(list *uint64, it record) {
	prev, next := it.prev(), it.next()
	head, tail := lo(*list), hi(*list)
	if prev != 0 {
		p := a.rec(prev)
		p[recLinks] = pack(p.prev(), next)
	} else {
		head = next
	}
	if next != 0 {
		n := a.rec(next)
		n[recLinks] = pack(prev, n.next())
	} else {
		tail = prev
	}
	*list = pack(head, tail)
	it[recLinks] = 0
	it[recUp] &^= inListBit
}
