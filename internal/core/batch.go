package core

import "slices"

// This file holds the two passes of Rebuild, the bulk preprocessing
// phase: countAtom (the counting pass) and buildWeights + sortLists (the
// bottom-up weight pass and the canonical list order).

// countAtom is the top-down half of the update procedure for one atom and
// one inserted tuple: match the repeated-variable pattern, fetch or create
// the items along the atom's root path, and increment their C^i_ψ. Weight
// maintenance is deferred to buildWeights.
//
//dyncq:hot
func (e *Engine) countAtom(ar atomRef, tuple []Value) {
	c := e.comps[ar.comp]
	a := &c.atoms[ar.atom]
	for _, eq := range a.eqChecks {
		if tuple[eq[0]] != tuple[eq[1]] {
			return
		}
	}
	d := len(a.pathNodes)
	vals := e.scratch.vals[:d]
	for j := 0; j < d; j++ {
		vals[j] = tuple[a.extract[j]]
	}
	var parent ref
	for j := 0; j < d; j++ {
		nodeIdx := a.pathNodes[j]
		nd := &c.nodes[nodeIdx]
		slot, existed := c.index[nodeIdx].Ref(vals[:j+1])
		if !existed {
			*slot = c.arenas[nodeIdx].alloc(nd, vals[j], parent)
		}
		parent = *slot
		c.arenas[nodeIdx].rec(parent)[nd.offCounts+a.slotAtDepth[j]]++
	}
}

// buildWeights runs the deferred bottom-up pass of Rebuild for one
// component. Nodes are stored in document order (pre-order), so reverse
// index order visits every child before its parent and each item's child
// sums are complete when its own weight is computed. Fit items are
// prepended to their list as an unordered chain through their next
// halves, the list word's tail half left 0; sortLists turns the chains
// into properly ordered doubly linked lists afterwards.
func buildWeights(c *comp) {
	for ni := len(c.nodes) - 1; ni >= 0; ni-- {
		nd := &c.nodes[ni]
		ar := &c.arenas[ni]
		c.index[ni].Range(func(_ []Value, r ref) bool {
			it := ar.rec(r)
			w, f := nd.weights(it)
			it[recWeight] = w
			if nd.free {
				it[recFWeight] = f
			}
			if w == 0 {
				return true
			}
			list := &c.start
			if ni == 0 {
				c.cStart += w
				c.cfStart += f
			} else {
				p := c.arenas[nd.parent].rec(it.parent())
				p[nd.upSum] += w
				if nd.free {
					p[nd.upFSum] += f
				}
				list = &p[nd.upList]
			}
			it[recLinks] = pack(0, lo(*list))
			*list = pack(r, 0)
			return true
		})
	}
}

// listEntry decorates one chained item with its own constant, so sorting
// a sibling list compares contiguous int64s instead of resolving refs.
type listEntry struct {
	v Value
	r ref
}

// sortLists rebuilds every chain produced by buildWeights into a doubly
// linked list in ascending order of the items' own constants. Siblings
// share their key prefix, so per-list order by own constant is exactly
// the lexicographic order a sorted single-tuple replay produces — but
// sorting per list costs Σ k·log k over the (typically small) list sizes
// instead of one comparison-heavy sort over all items of a node.
func sortLists(c *comp, scratch []listEntry) []listEntry {
	// fix orders the chain of node ni's items hanging off *list and
	// rewrites both halves of the word.
	fix := func(list *uint64, ni int32) {
		ar, own := &c.arenas[ni], c.nodes[ni].offOwn
		buf := scratch[:0]
		for r := lo(*list); r != 0; {
			it := ar.rec(r)
			buf = append(buf, listEntry{v: Value(it[own]), r: r})
			r = it.next()
		}
		if scratch = buf; len(buf) == 0 {
			return
		}
		slices.SortFunc(buf, func(a, b listEntry) int {
			if a.v < b.v {
				return -1
			}
			return 1 // keys are unique per node: equality cannot happen
		})
		for i, en := range buf {
			var prev, next ref
			if i > 0 {
				prev = buf[i-1].r
			}
			if i+1 < len(buf) {
				next = buf[i+1].r
			}
			it := ar.rec(en.r)
			it[recLinks] = pack(prev, next)
			it[recUp] |= inListBit
		}
		*list = pack(buf[0].r, buf[len(buf)-1].r)
	}
	fix(&c.start, 0)
	for ni := range c.nodes {
		nd := &c.nodes[ni]
		if len(nd.children) == 0 {
			continue
		}
		c.index[ni].Range(func(_ []Value, r ref) bool {
			lists := c.arenas[ni].rec(r)[nd.offLists:]
			for sl, ch := range nd.children {
				fix(&lists[sl], ch)
			}
			return true
		})
	}
	return scratch
}
