package dyncq

import (
	"bytes"
	"slices"
	"sync/atomic"
)

// This file implements the version-keyed shared snapshot cache behind
// Handle.Snapshot — the O(1) pin — and the copy-on-write storage that
// makes keeping it current cost O(|Δ|) per commit. Each handle holds at
// most ONE cached QuerySnapshot behind an atomic pointer; a pin whose
// version is still current returns that shared snapshot with one pointer
// load. Commits ADVANCE a demanded cache instead of invalidating it.
//
// A snapshot's rows are in lexicographic order for every strategy (the
// order DeltaEvent uses), stored as a sorted sequence of immutable
// leaves — runs of at most 2×snapLeafRows rows — under one index level
// (QuerySnapshot.leaves, the slice of them).
// An advance takes the commit's result delta, which the backend emitted
// in O(|Δ|) because a cached snapshot arms emission (Handle.emits),
// finds the leaves the delta's tuples fall into by binary search,
// rebuilds only those and shares every other leaf by pointer with the
// previous version: O(|Δ|·leaf) rows copied plus the n/leaf index
// entries, no backend enumeration, no sort. A reader holding an old pin
// keeps exactly the leaves it can see. A leaf also carries its encoded
// form once a reader has asked for it (snapLeaf.enc, filled through
// QuerySnapshot.Blocks): shared leaves take their bytes along from version
// to version, and the bytes go when the leaf does. A rebuilt leaf carries
// until then the plan of its merge — which rows came from which old leaf,
// which were added — so that its bytes are spliced from the old leaves'
// and rendering a new version formats only the rows added since the last
// rendered one. A plan names only leaves whose bytes are filled, so it
// keeps alive at most the leaves of the last rendered version, and it is
// dropped when the leaf's own bytes are filled. Only a commit that comes
// without a delta re-materialises: a Load on a handle nobody captures.
//
// The fast path is linearizable without any lock: the pointer only
// moves while writers are excluded (write lock held, or the read lock
// on the slow-path pin), and the pin loads the pointer BEFORE the
// atomic version — so a version match proves the snapshot was built at
// the current committed state. Version values are unique and monotonic,
// so a stale pointer can never match. A commit stores the advanced
// snapshot, stamped with the version it is making, before that version
// moves (once every handle has finished): until then pins keep hitting
// the previous version's snapshot, and in the short gap between the
// store and the move they miss and wait on the read lock.
//
// Demand decays by work, not by commit count — the ski-rental rule: keep
// paying for cheap advances only until they have cost what one cold pin
// would. Every pin re-arms a budget of the words a re-materialisation of
// the pinned snapshot writes (snapshotWords: a header word, one index word
// per leaf, n·arity values); every advance is charged the words it wrote
// (a header word, the next version's index level, the rows and plans of
// the leaves it rebuilt, and the arity·|Δ| values of the delta it read);
// a commit that finds the budget spent drops the cache instead of
// advancing it.
// After the last pin the unread advances therefore write at most one
// re-materialisation plus one advance, and since every advance is charged
// at least its index words while a leaf holds at most 2×snapLeafRows
// rows, the cache outlives the last pin by at most about
// 2·snapLeafRows·arity + 1 commits whatever |D| and |Q(D)| are. A reader
// polling often enough that its lag fits the budget never misses; a
// write-only stream pays one pointer load per commit.

// snapLeafRows is the row capacity of a snapshot leaf: a materialised
// result is cut into leaves of at most this many rows, and a patched leaf
// is split above twice it and folded into a neighbour below half of it.
// It trades the rows copied per touched leaf against the n/leaf index
// words copied per advance. Measured at 64, 128 and 256: read-mix (3k
// rows, a tuple or so per commit) cannot tell them apart; on
// BenchmarkSnapshotAdvance (eight scattered tuples per commit) 256 copies
// the most at every result size, 64 the least up to 100k rows but with
// twice the index term of 128, which is what grows with the result.
const snapLeafRows = 128

// SnapshotCacheStats is one handle's snapshot-cache observability
// counters. Hits and Misses split the pins (Hits returned the shared
// cached snapshot with zero enumeration; Misses materialised); Patched,
// Rebuilt and Invalidated split the commit-side outcomes for a live
// cache (the commit's delta merged into the touched leaves,
// re-materialised for want of a delta, or dropped by demand decay /
// eviction / unregistration).
type SnapshotCacheStats struct {
	Hits        uint64
	Misses      uint64
	Patched     uint64
	Rebuilt     uint64
	Invalidated uint64
}

// SnapshotCacheStats returns the handle's cache counters. The counters
// are monotonic; sample before and after a phase to rate it.
func (h *Handle) SnapshotCacheStats() SnapshotCacheStats {
	return SnapshotCacheStats{
		Hits:        h.snapHits.Load(),
		Misses:      h.snapMisses.Load(),
		Patched:     h.snapPatched.Load(),
		Rebuilt:     h.snapRebuilt.Load(),
		Invalidated: h.snapInvalidated.Load(),
	}
}

// CachedSnapshot returns the shared snapshot pinned at the workspace's
// current committed version, or nil when no current snapshot is cached
// (no pin since the last commit or invalidation). It takes no lock and
// performs no allocation: one pointer load, one version load. Callers
// wanting a snapshot unconditionally use Snapshot, which falls back to
// materialising; CachedSnapshot is the probe for callers with a cheaper
// cold path of their own (the server answers count/answer from the
// cached header and only takes the read lock when cold).
//
//dyncq:hot
func (h *Handle) CachedSnapshot() *QuerySnapshot {
	s := h.snap.Load()
	if s == nil || s.version != h.ws.version.Load() {
		return nil
	}
	h.demand.Store(snapshotWords(s))
	h.snapHits.Add(1)
	return s
}

// pinLocked is the slow-path pin: re-probe the cache (another reader
// may have materialised this version between the fast-path miss and the
// lock), else materialise, publish, and re-arm demand. Callers hold at
// least the workspace read lock; concurrent slow-path pinners may both
// materialise and race the Store, which is benign — a snapshot is a
// function of the result set, so the two hold identical rows and either
// wins.
func (h *Handle) pinLocked() *QuerySnapshot {
	if s := h.snap.Load(); s != nil && s.version == h.ws.version.Load() {
		h.demand.Store(snapshotWords(s))
		h.snapHits.Add(1)
		return s
	}
	s := h.newSnapshot(h.ws.version.Load())
	h.fillSnapshot(s)
	h.snap.Store(s)
	h.demand.Store(snapshotWords(s))
	h.snapMisses.Add(1)
	return s
}

// snapshotWords is what materialising s writes — a header word, one index
// word per leaf and its n·arity values — and so the demand budget a pin of
// s re-arms: the price of the cold pin the cache saves.
//
//dyncq:hot
func snapshotWords(s *QuerySnapshot) int64 {
	return int64(1 + len(s.leaves) + s.n*s.arity)
}

// EvictSnapshot drops the handle's cached snapshot, reporting whether
// one was cached. Snapshots already pinned by readers stay valid and
// immutable; only the cache forgets them, so the next pin materialises
// afresh and commits stop advancing it. A memory knob for rarely-read
// queries with huge results — and the tests' way of forcing the
// copy-on-pin path the cache replaces. It takes no lock, so it
// may land in the middle of a commit; the commit then simply finds no
// cache to advance.
func (h *Handle) EvictSnapshot() bool {
	h.demand.Store(0)
	if h.snap.Swap(nil) == nil {
		return false
	}
	h.snapInvalidated.Add(1)
	return true
}

// advanceSnapshot is the commit-side half of the cache: bring the
// cached snapshot to the version ev names and charge demand the words
// that wrote, or drop it when the budget is spent. delta says whether ev
// holds the commit's result delta; its tuples are only read, never
// retained. Runs with exclusive workspace access, before w.version moves,
// in the handle's pool item (Handle.publish).
//
//dyncq:hot
func (h *Handle) advanceSnapshot(ev DeltaEvent, delta bool) {
	prev := h.snap.Load()
	if prev == nil {
		return
	}
	if h.demand.Load() <= 0 {
		h.snap.Store(nil)
		h.snapInvalidated.Add(1)
		return
	}
	s := h.newSnapshot(ev.Version)
	written := 0 // values written besides the header and index words
	if delta {
		// Delta in hand: rebuild the leaves its tuples fall into, share
		// the rest — no backend enumeration, no sort. A Boolean query has
		// no leaves, and its delta is the empty tuple coming or going.
		if s.arity > 0 {
			s.leaves, written = patchLeaves(prev.leaves, s.arity, snapLeafRows, ev.Added, ev.Removed)
		}
		s.n = prev.n + len(ev.Added) - len(ev.Removed)
		written += s.arity * (len(ev.Added) + len(ev.Removed))
		h.snapPatched.Add(1)
	} else {
		// A rebuild is charged the whole budget: it wrote what a cold pin
		// writes.
		h.fillSnapshot(s)
		written = s.n * s.arity
		h.snapRebuilt.Add(1)
	}
	h.demand.Add(-int64(1 + len(s.leaves) + written))
	// An eviction that landed during this commit wins: the cache stays
	// empty rather than resurrected.
	h.snap.CompareAndSwap(prev, s)
}

// snapLeaf is an immutable row-major run of whole result rows in
// lexicographic order. Snapshots hold their leaves by pointer, so that
// the index level an advance copies is one word per leaf — and so that
// what a reader derives from a leaf's rows stays with the leaf: enc is
// the rows' encoded form, filled at most once (QuerySnapshot.Blocks) and
// carried to every later version that shares the leaf, and until then,
// for a leaf an advance rebuilt, the plan that splices that form out of
// the blocks of the leaves it was merged from.
type snapLeaf struct {
	rows []Value
	enc  atomic.Pointer[leafEncoding]
}

// leafEncoding is what a leaf holds of its encoded form. A filled one has
// block, one '\n'-terminated line per row, and ends, where ends[i] is the
// offset just past row i's line — so a range of rows is a range of
// bytes. An unfilled one has the plan of a rebuilt leaf. A leaf moves from
// planned (or from nothing, nil) to filled once, by one compare-and-swap
// that drops the plan, and with it the leaves the plan kept alive.
type leafEncoding struct {
	plan  []spliceOp
	block []byte
	ends  []int32
}

// spliceOp is one step of a rebuilt leaf's plan, which tiles its rows in
// order: the next rows rows of the leaf are rows [from, from+rows) of src,
// whose block is filled — or, with src nil, rows no filled block holds
// (the delta's added tuples, and rows of leaves never encoded), which the
// encoder formats.
type spliceOp struct {
	src        *snapLeaf
	from, rows int32
}

// spliceOpWords is what a plan step holds, in words: a plan is charged to
// the demand budget at this many words a step.
const spliceOpWords = 2

// appendSplice appends to plan the step "the next n rows are rows
// [from, from+n) of src", resolved so that the plan names only leaves with
// a filled block: a source with a block is named, a source with a plan
// but no block contributes the slice of its own plan that covers those
// rows (so a plan never reaches back more than one step, whatever the
// number of unread advances), and a source with neither gives rows to
// format.
//
//dyncq:hot
func appendSplice(plan []spliceOp, src *snapLeaf, from, n int) []spliceOp {
	switch e := src.enc.Load(); {
	case e != nil && e.block != nil:
		return appendStep(plan, spliceOp{src: src, from: int32(from), rows: int32(n)})
	case e != nil:
		return appendPlanSlice(plan, e.plan, from, n)
	}
	return appendStep(plan, spliceOp{rows: int32(n)})
}

// appendPlanSlice appends the steps of plan that cover the rows
// [from, from+n) of the leaf it tiles, cut at both ends.
//
//dyncq:hot
func appendPlanSlice(dst, plan []spliceOp, from, n int) []spliceOp {
	out := dst[:]
	at := 0 // the leaf's first row the step at hand covers
	for _, op := range plan {
		if lo, hi := max(from, at), min(from+n, at+int(op.rows)); lo < hi {
			cut := spliceOp{src: op.src, rows: int32(hi - lo)}
			if op.src != nil {
				cut.from = op.from + int32(lo-at)
			}
			out = appendStep(out, cut)
		}
		if at += int(op.rows); at >= from+n {
			break
		}
	}
	return out
}

// appendStep appends op to plan, extending the last step instead when op
// continues it: rows to format after rows to format, or the next rows of
// the same source.
//
//dyncq:hot
func appendStep(plan []spliceOp, op spliceOp) []spliceOp {
	if k := len(plan) - 1; k >= 0 && plan[k].src == op.src && (op.src == nil || plan[k].from+plan[k].rows == op.from) {
		plan[k].rows += op.rows
		return plan
	}
	out := plan[:]
	return append(out, op)
}

// setPlan gives a leaf being built its plan, a copy of the exact size,
// and returns the words it holds. A plan that formats every row is no
// plan: the leaf is encoded whole.
func (l *snapLeaf) setPlan(plan []spliceOp) int {
	if len(plan) == 1 && plan[0].src == nil {
		return 0
	}
	l.enc.Store(&leafEncoding{plan: slices.Clone(plan)})
	return spliceOpWords * len(plan)
}

// planWords returns the words of the plan a leaf holds, 0 once filled.
func (l *snapLeaf) planWords() int {
	if e := l.enc.Load(); e != nil {
		return spliceOpWords * len(e.plan)
	}
	return 0
}

// fill encodes the leaf and keeps the result, unless a racing call kept
// one first; it returns the one kept. was is the unfilled state the caller
// found. A leaf without a plan is encoded whole; a planned one is spliced:
// one copy per step that names a source, out of that source's block, and
// one encoder call per run of rows to format — so what is formatted is
// what no earlier block holds. The block is allocated at its exact size.
//
//dyncq:hot
func (l *snapLeaf) fill(was *leafEncoding, name string, arity int, encode func(name string, arity int, rows []Value) []byte) *leafEncoding {
	f := &leafEncoding{ends: make([]int32, len(l.rows)/arity)}
	if was == nil {
		f.block = encode(name, arity, l.rows)
		lineEnds(f.ends, f.block, 0)
	} else {
		// Format first, so the size is known before the block is made.
		var first [4][]byte
		formatted := first[:0]
		size, at := 0, 0
		for _, op := range was.plan {
			if op.src == nil {
				b := encode(name, arity, l.rows[at*arity:(at+int(op.rows))*arity])
				formatted = append(formatted, b)
				size += len(b)
			} else {
				src := op.src.enc.Load()
				size += int(lineStart(src.ends, op.from+op.rows) - lineStart(src.ends, op.from))
			}
			at += int(op.rows)
		}
		block := make([]byte, 0, size)
		at = 0
		for _, op := range was.plan {
			ends := f.ends[at : at+int(op.rows)]
			if op.src == nil {
				lineEnds(ends, formatted[0], int32(len(block)))
				block = append(block, formatted[0]...)
				formatted = formatted[1:]
			} else {
				src := op.src.enc.Load()
				lo, hi := lineStart(src.ends, op.from), lineStart(src.ends, op.from+op.rows)
				shift := int32(len(block)) - lo
				for i, end := range src.ends[op.from : op.from+op.rows] {
					ends[i] = end + shift
				}
				block = append(block, src.block[lo:hi]...)
			}
			at += int(op.rows)
		}
		f.block = block
	}
	if l.enc.CompareAndSwap(was, f) {
		return f
	}
	return l.enc.Load()
}

// lineStart returns the offset at which row i's line starts in a block
// whose line ends are ends: where row i-1's ends, 0 for the first.
//
//dyncq:hot
func lineStart(ends []int32, i int32) int32 {
	if i == 0 {
		return 0
	}
	return ends[i-1]
}

// lineEnds records in ends the offsets, shifted by base, just past each
// line of an encoder's output, which must hold exactly len(ends) lines.
//
//dyncq:hot
func lineEnds(ends []int32, b []byte, base int32) {
	off := 0
	for i := range ends {
		n := bytes.IndexByte(b[off:], '\n')
		if n < 0 {
			panic("dyncq: a Blocks encoder rendered fewer lines than rows")
		}
		off += n + 1
		ends[i] = base + int32(off)
	}
	if off != len(b) {
		panic("dyncq: a Blocks encoder rendered more than one line per row")
	}
}

// patchLeaves merges one committed delta into a snapshot's leaves and
// returns the next version's. The leaves in sequence list the result in
// lexicographic order, and the slice of them is the one index level: the
// next version gets a slice of its own, the leaves themselves are shared.
// added and removed arrive lex-sorted and disjoint from the DeltaEvent
// contract, removed ⊆ prev and added ∩ prev = ∅. Every leaf no delta
// tuple falls into goes over as it is; a touched leaf is rebuilt by one
// merge — together with its right neighbours for as long as what is left
// of it holds fewer than capacity/2 rows (with the left neighbour when it
// is the last), cut into even pieces when it outgrows 2×capacity rows,
// dropped when nothing is left. So every leaf of a result of more than
// one leaf holds between capacity/2 and 2×capacity rows, and a delta of d
// tuples rebuilds at most 2d leaves. Each rebuilt leaf records, as its
// plan, which rows it took from which leaf and which it gained, so that
// its encoded form is spliced from theirs (snapLeaf.fill); a run cut into
// pieces cuts its plan alike. words is what the rebuilt leaves — those of
// next not shared with prev — hold, in words: their values and their
// plans, the advance's charge for them.
//
//dyncq:hot
func patchLeaves(prev []*snapLeaf, arity, capacity int, added, removed [][]Value) (next []*snapLeaf, words int) {
	next = make([]*snapLeaf, 0, len(prev)+len(added)/capacity+2)
	li := 0              // the first leaf of prev not yet shared or merged
	a, r := 0, 0         // the first delta tuples not yet merged
	lastRebuilt := false // whether next ends in a leaf of this call's
	// The plan of the run at hand and of the piece at hand, reused from
	// run to run: a step per added tuple and one per range of rows between
	// two delta tuples, more when a source lends its plan's steps.
	plan := make([]spliceOp, 0, 16)
	var piece []spliceOp
	for a < len(added) || r < len(removed) {
		// The smallest pending delta tuple names the next touched leaf;
		// the leaves ahead of it go over as they are.
		t, _ := firstTuple(added[a:], removed[r:])
		hit := li + leafOf(prev[li:], arity, t)
		if hit > li {
			next, lastRebuilt = append(next, prev[li:hit]...), false
		}
		li = hit
		// One run: leaves prev[from:li] and the delta tuples ahead of the
		// first row of prev[li] (all that are left, after the last leaf)
		// merge into m rows.
		from, a0, r0, m := li, a, r, 0
		for {
			if li < len(prev) {
				m += len(prev[li].rows) / arity
				li++
			}
			var bound []Value
			if li < len(prev) {
				bound = prev[li].rows[:arity]
			}
			for ; a < len(added) && (bound == nil || rowCompare(added[a], bound) < 0); a++ {
				m++
			}
			for ; r < len(removed) && (bound == nil || rowCompare(removed[r], bound) < 0); r++ {
				m--
			}
			if m == 0 || 2*m >= capacity || li == len(prev) {
				break
			}
		}
		if m == 0 {
			continue
		}
		var left []Value
		plan = plan[:0]
		if 2*m < capacity && len(next) > 0 {
			// Too small to stand alone and no right neighbour left: take
			// back the leaf before it (if a run before rebuilt that one,
			// its rows count once, in this run, and its plan goes into
			// this run's).
			l := next[len(next)-1]
			left, next = l.rows, next[:len(next)-1]
			m += len(left) / arity
			plan = appendSplice(plan, l, 0, len(left)/arity)
			if lastRebuilt {
				words -= len(left) + l.planWords()
			}
		}
		run := make([]Value, 0, m*arity)
		run = append(run, left...)
		run, plan = mergeLeaves(run, plan, prev[from:li], arity, added[a0:a], removed[r0:r])
		words += len(run)
		if m <= 2*capacity {
			l := &snapLeaf{rows: run}
			words += l.setPlan(plan)
			next = append(next, l)
		} else {
			k := len(next)
			next = appendLeaves(next, m, arity, capacity, func(i int) []Value { return run[i*arity : (i+1)*arity] })
			at := 0
			for _, l := range next[k:] {
				n := len(l.rows) / arity
				piece = appendPlanSlice(piece[:0], plan, at, n)
				words += l.setPlan(piece)
				at += n
			}
		}
		lastRebuilt = true
	}
	return append(next, prev[li:]...), words
}

// firstTuple returns the lexicographically smaller head of two sorted,
// disjoint tuple lists, and whether it heads the second; nil when both
// are empty.
//
//dyncq:hot
func firstTuple(a, b [][]Value) (t []Value, second bool) {
	switch {
	case len(a) == 0 && len(b) == 0:
		return nil, false
	case len(b) == 0 || (len(a) > 0 && rowCompare(a[0], b[0]) < 0):
		return a[0], false
	}
	return b[0], true
}

// leafOf returns the index of the leaf tuple t falls into: the last one
// whose first row is not after t, the first leaf when t is ahead of all.
//
//dyncq:hot
func leafOf(leaves []*snapLeaf, arity int, t []Value) int {
	lo, hi := 0, len(leaves) // leaves[:lo] start at or before t, leaves[hi:] after it
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rowCompare(leaves[mid].rows[:arity], t) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return max(lo-1, 0)
}

// mergeLeaves appends to run the rows of consecutive leaves with the
// removed rows left out and the added ones spliced in at their sort
// position, and to plan the steps that say so. Each delta tuple's place is
// found by binary search and the rows between two places are copied in
// one piece, one plan step.
//
//dyncq:hot
func mergeLeaves(run []Value, plan []spliceOp, leaves []*snapLeaf, arity int, added, removed [][]Value) ([]Value, []spliceOp) {
	out, steps := run[:], plan[:]
	for k, l := range leaves {
		rows := l.rows
		var bound []Value // delta tuples from here on belong to a later leaf
		if k+1 < len(leaves) {
			bound = leaves[k+1].rows[:arity]
		}
		off := 0
		for {
			t, remove := firstTuple(added, removed)
			if t == nil || (bound != nil && rowCompare(t, bound) >= 0) {
				break
			}
			at := off + rowLowerBound(rows[off:], arity, t)
			if at > off {
				out = append(out, rows[off:at]...)
				steps = appendSplice(steps, l, off/arity, (at-off)/arity)
			}
			off = at
			if remove {
				off += arity
				removed = removed[1:]
			} else {
				out = append(out, t...)
				steps = appendStep(steps, spliceOp{rows: 1})
				added = added[1:]
			}
		}
		if off < len(rows) {
			out = append(out, rows[off:]...)
			steps = appendSplice(steps, l, off/arity, (len(rows)-off)/arity)
		}
	}
	for _, t := range added { // no leaves at all: the result was empty
		out = append(out, t...)
		steps = appendStep(steps, spliceOp{rows: 1})
	}
	return out, steps
}

// rowLowerBound returns the offset in the sorted row-major buffer rows of
// the first row that is not before t.
//
//dyncq:hot
func rowLowerBound(rows []Value, arity int, t []Value) int {
	lo, hi := 0, len(rows)/arity
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rowCompare(rows[mid*arity:(mid+1)*arity], t) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo * arity
}

// appendLeaves cuts n sorted rows, the i-th of which row(i) returns,
// into ⌈n/capacity⌉ leaves of even size — each its own allocation, so a
// leaf keeps nothing but itself alive — and appends them to leaves.
//
//dyncq:hot
func appendLeaves(leaves []*snapLeaf, n, arity, capacity int, row func(i int) []Value) []*snapLeaf {
	pieces := (n + capacity - 1) / capacity
	out := slices.Grow(leaves, pieces)[:len(leaves)]
	for p := 0; p < pieces; p++ {
		lo, hi := p*n/pieces, (p+1)*n/pieces
		rows := make([]Value, 0, (hi-lo)*arity)
		for i := lo; i < hi; i++ {
			rows = append(rows, row(i)...)
		}
		out = append(out, &snapLeaf{rows: rows})
	}
	return out
}

// fillSnapshot materialises the backend's current result into s — the
// copy-on-pin slow path, and the advance of a commit that came without
// a delta. One enumeration into one buffer, a sort of row numbers (the
// rows themselves never move), one gather straight into the leaves.
// Callers hold the read lock or exclusive access.
func (h *Handle) fillSnapshot(s *QuerySnapshot) {
	if s.arity == 0 {
		// Boolean query: the result is {()} or ∅; do not rely on the
		// backend enumerating empty tuples.
		s.n = int(h.back.Count())
		return
	}
	// Count is O(1), so the buffer is one exactly-sized allocation.
	buf := make([]Value, 0, int(h.back.Count())*s.arity)
	h.back.Enumerate(func(t []Value) bool {
		buf = append(buf, t...)
		return true
	})
	arity := s.arity
	s.n = len(buf) / arity
	order := lexOrder(buf, arity)
	s.leaves = appendLeaves(nil, s.n, arity, snapLeafRows,
		func(i int) []Value { return buf[int(order[i])*arity : (int(order[i])+1)*arity] })
}

// lexOrder returns the row numbers of a row-major buffer in
// lexicographic row order. A radix sort, least significant first: the
// last column before the first, and per column one stable counting pass
// for every byte that is not the same in all rows — of the eight, one or
// two for the small non-negative values dictionary codes and counters
// are. Linear in the rows where a comparison sort of a core result (which
// enumerates in an order of its own) spends four fifths of a cold pin.
func lexOrder(buf []Value, arity int) []int32 {
	n := len(buf) / arity
	order, spare := make([]int32, n), make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	for col := arity - 1; col >= 0; col-- {
		// With the sign bit flipped, unsigned byte order is the order of
		// the signed values.
		key := func(row int32) uint64 { return uint64(buf[int(row)*arity+col]) ^ 1<<63 }
		var varies uint64 // the bits in which two rows differ in this column
		for i := 1; i < n; i++ {
			varies |= key(int32(i)) ^ key(0)
		}
		for shift := 0; shift < 64; shift += 8 {
			if varies>>shift&0xff == 0 {
				continue
			}
			var starts [256]int // rows per byte value, then where each value's rows go
			for _, row := range order {
				starts[key(row)>>shift&0xff]++
			}
			for b, at := 0, 0; b < len(starts); b++ {
				at, starts[b] = at+starts[b], at
			}
			for _, row := range order {
				b := key(row) >> shift & 0xff
				spare[starts[b]] = row
				starts[b]++
			}
			order, spare = spare, order
		}
	}
	return order
}

// rowCompare orders two equal-arity rows lexicographically.
//
//dyncq:hot
func rowCompare(a, b []Value) int {
	for k := range a {
		if a[k] != b[k] {
			if a[k] < b[k] {
				return -1
			}
			return 1
		}
	}
	return 0
}
