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
func (e *Engine) countAtom(ref atomRef, tuple []Value) {
	c := e.comps[ref.comp]
	a := &c.atoms[ref.atom]
	for _, eq := range a.eqChecks {
		if tuple[eq[0]] != tuple[eq[1]] {
			return
		}
	}
	d := len(a.pathNodes)
	vals := e.scratchVals[:d]
	for j := 0; j < d; j++ {
		vals[j] = tuple[a.extract[j]]
	}
	sh := &c.shards[e.shardOf(vals[0])]
	var parent *item
	for j := 0; j < d; j++ {
		nodeIdx := a.pathNodes[j]
		slot, existed := sh.index[nodeIdx].Ref(vals[:j+1])
		if !existed {
			*slot = sh.slab.alloc(&c.nodes[nodeIdx], nodeIdx, vals[:j+1], parent)
		}
		parent = *slot
		parent.counts[a.slotAtDepth[j]]++
	}
}

// buildWeights runs the deferred bottom-up pass of Rebuild for one
// shard of one component. Nodes are stored in document order (pre-order),
// so reverse index order visits every child before its parent and each
// item's child sums are complete when its own weight is computed (parents
// and children always share a shard). Fit items are prepended to their
// list's head as an unordered chain; sortLists turns the chains into
// properly ordered doubly linked lists afterwards.
func (e *Engine) buildWeights(c *comp, sh *compShard) {
	for ni := len(c.nodes) - 1; ni >= 0; ni-- {
		nd := &c.nodes[ni]
		m := sh.index[ni]
		if m.Len() == 0 {
			continue
		}
		m.Range(func(_ []Value, it *item) bool {
			w := uint64(1)
			for _, s := range nd.repSlots {
				if it.counts[s] == 0 {
					w = 0
					break
				}
			}
			if w != 0 {
				for ci := range nd.children {
					w *= it.childSum[ci]
					if w == 0 {
						break
					}
				}
			}
			var f uint64
			if nd.free && w != 0 {
				f = 1
				for ci := int32(0); ci < nd.freeChildCount; ci++ {
					f *= it.fchildSum[ci]
				}
			}
			it.weight, it.fweight = w, f
			if w == 0 {
				return true
			}
			if ni == 0 {
				it.next = sh.startHead
				sh.startHead = it
				sh.cStart += w
				if nd.free {
					sh.cfStart += f
				}
			} else {
				p := it.parent
				sl := nd.slotInParent
				it.next = p.childHead[sl]
				p.childHead[sl] = it
				p.childSum[sl] += w
				if nd.free {
					p.fchildSum[sl] += f
				}
			}
			return true
		})
	}
}

// listEntry decorates one chained item with its own constant (the last
// element of its key), so sorting a sibling list compares contiguous
// int64s instead of chasing key slices.
type listEntry struct {
	v  Value
	it *item
}

// sortLists rebuilds every chain produced by buildWeights into a doubly
// linked list in ascending order of the items' own constants. Siblings
// share their key prefix, so per-list order by last element is exactly
// the lexicographic order a sorted single-tuple replay produces — but
// sorting per list costs Σ k·log k over the (typically small) list sizes
// instead of one comparison-heavy sort over all items of a node. (With
// more than one shard the root list is sorted per shard, so enumeration
// is lexicographic within each shard; the fully canonical global order is
// a property of the unsharded engine.)
func sortLists(c *comp, sh *compShard, scratch []listEntry) []listEntry {
	fix := func(head, tail **item) {
		if *head == nil || (*head).next == nil {
			if *head != nil {
				(*head).inList = true
				*tail = *head
			}
			return
		}
		buf := scratch[:0]
		for x := *head; x != nil; x = x.next {
			buf = append(buf, listEntry{v: x.key[len(x.key)-1], it: x})
		}
		if cap(buf) > cap(scratch) {
			scratch = buf
		}
		slices.SortFunc(buf, func(a, b listEntry) int {
			if a.v < b.v {
				return -1
			}
			return 1 // keys are unique per node: equality cannot happen
		})
		var prev *item
		for _, en := range buf {
			en.it.prev = prev
			if prev != nil {
				prev.next = en.it
			} else {
				*head = en.it
			}
			en.it.inList = true
			prev = en.it
		}
		prev.next = nil
		*tail = prev
	}
	fix(&sh.startHead, &sh.startTail)
	for ni := range c.nodes {
		if len(c.nodes[ni].children) == 0 {
			continue
		}
		sh.index[ni].Range(func(_ []Value, it *item) bool {
			for sl := range it.childHead {
				fix(&it.childHead[sl], &it.childTail[sl])
			}
			return true
		})
	}
	return scratch
}
