package core

import "fmt"

// This file implements constant-delay enumeration (Section 6.3,
// Algorithm 1). Per connected component, the enumeration state is one
// item per free q-tree node, in document order; a step advances the
// deepest (document-order-maximal) item that is not last in its fit list
// and re-fills the states after it with the first elements of their
// lists. Across components the result is the cross product
// ϕ(D) = ϕ1(D) × … × ϕj(D), enumerated as nested loops.
//
// Every step costs O(k) for a k-ary query: the delay is independent of
// the database, as Theorem 3.2(a) requires.

// compIter enumerates the result tuples of one component. The root state
// walks the start list; all deeper states follow child lists. The states
// are kept resolved.
//
// A compIter can also run Algorithm 1 with some states pinned (pin): the
// pinned states keep the items they were given, every other free node
// iterates as usual. That is the bound-prefix access a step's result
// delta needs (delta.go). The pinned positions are a set, not a
// document-order prefix — an atom's root path may skip over the subtree
// of an earlier sibling — so next skips them and fill never overwrites
// them. A full enumeration pins nothing.
type compIter struct {
	c      *comp
	cur    []record // per free node (document order)
	pinned []bool   // per free node: state fixed by pin
	done   bool
}

func newCompIter(c *comp) *compIter {
	return &compIter{c: c, cur: make([]record, len(c.freeNodes)), pinned: make([]bool, len(c.freeNodes))}
}

// pin fixes the states of the given free nodes (a root path prefix: node
// j holds items[j]) and releases every other state; pin(nil, nil)
// releases all of them. The caller positions the iterator with reset.
//
//dyncq:hot
func (ci *compIter) pin(nodes []int32, items []record) {
	clear(ci.pinned)
	for j, n := range nodes {
		ord := ci.c.nodes[n].freeOrd
		ci.pinned[ord] = true
		ci.cur[ord] = items[j]
	}
}

// set puts state mu on item r.
//
//dyncq:hot
func (ci *compIter) set(mu int, r ref) {
	ci.cur[mu] = ci.c.arenas[ci.c.freeNodes[mu]].rec(r)
}

// reset positions the iterator on the first result tuple (Algorithm 1,
// lines 4–9). It reports false if the component's result is empty. With
// pinned states the caller guarantees the pinned items are fit, so a
// first tuple exists.
//
//dyncq:hot
func (ci *compIter) reset() bool {
	ci.done = false
	if !ci.pinned[0] {
		head := lo(ci.c.start)
		if head == 0 {
			ci.done = true
			return false
		}
		ci.set(0, head)
	}
	ci.fill(1)
	return true
}

// fill sets the unpinned states from (inclusive) onward to the first
// elements of their lists (the Set function of Algorithm 1). Free parents
// precede their free children in document order, so cur[parent] is valid
// when cur[child] is filled; the parent being fit guarantees every child
// list is nonempty.
//
//dyncq:hot
func (ci *compIter) fill(from int) {
	for mu := from; mu < len(ci.c.freeNodes); mu++ {
		if ci.pinned[mu] {
			continue
		}
		nd := &ci.c.nodes[ci.c.freeNodes[mu]]
		head := lo(ci.cur[ci.c.nodes[nd.parent].freeOrd][nd.upList])
		if head == 0 {
			panic(fmt.Sprintf("core: fit item has empty %s-list (corrupted structure)", nd.name))
		}
		ci.set(mu, head)
	}
}

// next advances to the next result tuple (the visit procedure), reporting
// false at end of enumeration.
//
//dyncq:hot
func (ci *compIter) next() bool {
	if ci.done {
		return false
	}
	for mu := len(ci.c.freeNodes) - 1; mu >= 0; mu-- {
		if nxt := ci.cur[mu].next(); !ci.pinned[mu] && nxt != 0 {
			ci.set(mu, nxt)
			ci.fill(mu + 1)
			return true
		}
	}
	ci.done = true
	return false
}

// Iterator enumerates ϕ(D) without repetition. It is created by
// Engine.Iterator and invalidated by any subsequent update: calling Next
// on a stale iterator panics. (The paper's "constant-time restart" after
// an update is simply creating a fresh iterator.)
type Iterator struct {
	e       *Engine
	version uint64
	iters   []*compIter // one per component with free variables
	out     []Value
	state   iterState
}

type iterState uint8

const (
	iterFresh iterState = iota
	iterActive
	iterDone
)

// Iterator returns a new enumeration of the current query result.
func (e *Engine) Iterator() *Iterator {
	it := &Iterator{
		e:       e,
		version: e.version,
		out:     make([]Value, len(e.heads)),
	}
	for _, c := range e.comps {
		if c.hasFree {
			it.iters = append(it.iters, newCompIter(c))
		}
	}
	return it
}

// Next returns the next result tuple, or ok=false after the last tuple
// (the paper's EOE message). The returned slice is reused by subsequent
// calls; copy it if it must survive. Next panics if the engine has been
// updated since the iterator was created.
func (it *Iterator) Next() (tuple []Value, ok bool) {
	if it.version != it.e.version {
		panic("core: iterator used after update; restart enumeration with Engine.Iterator")
	}
	switch it.state {
	case iterDone:
		return nil, false
	case iterFresh:
		it.state = iterActive
		// Boolean components gate the whole product.
		for _, c := range it.e.comps {
			if c.cStart == 0 {
				it.state = iterDone
				return nil, false
			}
		}
		for _, ci := range it.iters {
			if !ci.reset() {
				it.state = iterDone
				return nil, false
			}
		}
		return it.assemble(), true
	default:
		if advance(it.iters) {
			return it.assemble(), true
		}
		it.state = iterDone
		return nil, false
	}
}

// advance steps the odometer over the component iterators: the last one
// advances, an exhausted one resets to its first tuple and carries
// leftward. It reports false once every combination has been visited.
//
//dyncq:hot
func advance(iters []*compIter) bool {
	for i := len(iters) - 1; i >= 0; i-- {
		if iters[i].next() {
			return true
		}
		iters[i].reset()
	}
	return false
}

// assemble builds the output tuple from the per-component states.
func (it *Iterator) assemble() []Value {
	it.e.fillTuple(it.out, it.iters)
	return it.out
}

// fillTuple writes the result tuple the per-component states stand on
// into dst (len(e.heads) long): head variable i lives at component
// heads[i].comp, free-node position heads[i].freeOrd, and its value is
// that item's own constant. iters holds one iterator per free component.
//
//dyncq:hot
func (e *Engine) fillTuple(dst []Value, iters []*compIter) {
	for i, loc := range e.heads {
		dst[i] = Value(iters[e.freeIdx[loc.comp]].cur[loc.freeOrd][loc.offOwn])
	}
}

// Enumerate calls yield for every tuple of ϕ(D), in the fixed enumeration
// order of Algorithm 1, until yield returns false. The slice passed to
// yield follows the uniform contract of pkg/dyncq.Handle.Enumerate: it
// is owned by the callee and reused between calls (this is what keeps the
// delay allocation-free) — copy it to retain it. For a Boolean query with
// ϕ(D) = yes, yield is called once with an empty tuple.
func (e *Engine) Enumerate(yield func(tuple []Value) bool) {
	it := e.Iterator()
	for t, ok := it.Next(); ok; t, ok = it.Next() {
		if !yield(t) {
			return
		}
	}
}

// Tuples returns the full query result as freshly allocated tuples —
// convenient for tests and small results; for large results prefer
// Iterator or Enumerate.
func (e *Engine) Tuples() [][]Value {
	var out [][]Value
	e.Enumerate(func(t []Value) bool {
		out = append(out, append([]Value(nil), t...))
		return true
	})
	return out
}
