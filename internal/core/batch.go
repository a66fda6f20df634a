package core

import "slices"

// This file holds sortLists, the canonical list order Rebuild ends with.

// listEntry decorates one listed item with its own constant, so sorting
// a sibling list compares contiguous int64s instead of resolving refs.
type listEntry struct {
	v Value
	r ref
}

// sortLists re-links every fit list of a component in ascending order of
// the items' own constants, replacing the "became fit" order the replay
// left. Siblings share their key prefix, so per-list order by own
// constant is exactly the lexicographic order a sorted single-tuple
// replay produces — but sorting per list costs Σ k·log k over the
// (typically small) list sizes instead of one comparison-heavy sort over
// all items of a node.
func sortLists(c *comp, scratch []listEntry) []listEntry {
	// fix orders the list of node ni's items packed in *list and
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
			ar.rec(en.r)[recLinks] = pack(prev, next)
		}
		*list = pack(buf[0].r, buf[len(buf)-1].r)
	}
	fix(&c.start, 0)
	for ni := range c.nodes {
		nd := &c.nodes[ni]
		if len(nd.children) == 0 {
			continue
		}
		idx := &c.index[ni]
		for i := range idx.Slots {
			if r := idx.at(i); r != 0 {
				lists := c.arenas[ni].rec(r)[nd.offLists:]
				for sl, ch := range nd.children {
					fix(&lists[sl], ch)
				}
			}
		}
	}
	return scratch
}
