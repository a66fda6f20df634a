package core

import "dyncq/internal/tuplekey"

// This file holds the engine's dynamic state: one arena of fixed-stride,
// pointer-free records per (component, q-tree node). An item
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
//	offOwn        the item's own constant a; with the parent ref it is
//	              the item's key in the A_v index, which stores no copy
//	              of the path (index.go)
//	offCounts…    C^i_ψ per tracked atom (numTracked words)
//	offSums…      C^i_u per child u (len(children) words)
//	offFSums…     C̃^i_u per free child — free nodes only
//	offLists…     per child u: head (low 32) | tail (high 32) of L^i_u,
//	              refs into u's arena
//
// A ref means something only together with its node: the A_v table that
// yields it, the parent word or list word it was read from, or the
// compIter state it sits in all fix it.
//
// An arena is a tuplekey.Arena: it grows by chunks and never moves a
// record, so a record slice stays valid until Clear. An item leaves the
// structure only when every C^i_ψ is zero — it is then unfit, unlinked and
// childless — and its record goes on the arena's free chain (threaded
// through word 0, recLinks) for the next item of the same node; steady
// churn reuses records instead of growing. Clear, and with it Rebuild,
// drops every chunk at once. Since neither the records nor the item
// indexes hold a Go pointer, the garbage collector never scans them: what
// it marks per cycle is the chunk directory, not the data.

// ref addresses a record of one arena; 0 is nil. An arena therefore holds
// at most 2³²−1 live items per node.
type ref uint32

// record is one item's words, aliasing its arena.
type record []uint64

const (
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

// arena stores the records of one node, nd.stride words each.
type arena struct{ tuplekey.Arena[uint64] }

// rec resolves a ref.
//
//dyncq:hot
func (a *arena) rec(r ref) record { return a.Rec(uint32(r)) }

// alloc returns an all-zero, unlinked item of node nd with the given own
// constant and parent: a recycled record if the free chain has one, a
// fresh one otherwise.
//
//dyncq:hot
func (a *arena) alloc(nd *cnode, own Value, parent ref) ref {
	r := ref(a.Alloc())
	it := a.rec(r)
	clear(it)
	it[recUp] = uint64(parent)
	it[nd.offOwn] = uint64(own)
	return r
}

// MaskFreeChainHeads corrupts the engine on purpose: it moves every
// free-chain head past its arena's first chunk to the record with the
// chunk bits masked off — a live item of chunk 0 — and returns how many
// heads it moved. It lets tests of the layers above, which cannot reach
// the arenas, check that their invariant audits do (CheckInvariants
// reports the moved head). Never call it on an engine still in use.
func (e *Engine) MaskFreeChainHeads() int {
	moved := 0
	for _, c := range e.comps {
		for ai := range c.arenas {
			if a := &c.arenas[ai]; a.FreeHead() >= tuplekey.ArenaChunk {
				a.Free(a.Alloc() % tuplekey.ArenaChunk)
				moved++
			}
		}
	}
	return moved
}

// link appends item r of arena a to the tail of the fit list whose
// head|tail word is *list: a word of the parent's record, or the
// component's start word for a root item.
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
