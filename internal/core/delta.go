package core

import "slices"

// This file implements the native result delta: while ApplyDelta is asked
// to emit, every per-atom step reports exactly the result tuples it added
// or removed, at a cost proportional to their number — no enumeration of
// ϕ(D), nothing sized by the result.
//
// The rule. Let the updated atom's root path hold the items i₀…i_{d−1},
// of which i₀…i_{f−1} sit at free nodes (free nodes are root-connected,
// so they are a prefix of the path). Only those items change weight, and
// a result tuple is a tree-consistent choice of one fit item per free
// node, so the step changes the result iff i_{f−1} flips fitness while
// i₀…i_{f−2} are fit; the changed tuples are then exactly the ones whose
// states at the path's free nodes are i₀…i_{f−1} — Algorithm 1 with those
// states pinned (compIter.pin), every other free node and every other
// component iterating as usual. A Boolean component (f = 0) contributes
// the flip of its gate C_start > 0 times the full product of the rest.
//
// Timing. A delete enumerates its removed tuples when the bottom-up loop
// stands at i_{f−1}, before that item is unlinked or recycled: the lists
// the pinned walk reads belong to free nodes off the path, which the step
// never modifies, and i₀…i_{f−2} still carry their pre-step list
// membership. An insert enumerates its added tuples after the loop, once
// all of i₀…i_{f−1} are linked.
//
// Netting. With a self-join, or across the steps of one batch, a tuple
// one step removes can be re-added by a later one, so steps accumulate
// signed rows and netDelta cancels them per batch.

// deltaAcc is the signed accumulator ApplyDelta nets its steps into, plus
// the iterators its pinned walks run on.
type deltaAcc struct {
	iters []*compIter // one per free component, as Iterator.iters
	flat  []Value     // emitted tuples, row-major at the head arity
	sign  []int8      // per row: +1 added, −1 removed
}

func (e *Engine) newDeltaAcc() *deltaAcc {
	acc := &deltaAcc{}
	for _, c := range e.comps {
		if c.hasFree {
			acc.iters = append(acc.iters, newCompIter(c))
		}
	}
	return acc
}

// allFit reports whether every item is linked into its fit list.
//
//dyncq:hot
func allFit(items []record) bool {
	for _, it := range items {
		if !it.inList() {
			return false
		}
	}
	return true
}

// emitStep appends, with the given sign, every result tuple whose states
// in component c at the atom's free path nodes are items[:a.free]: the
// pinned walk of c times the full result of every other component. For a
// Boolean c (a.free == 0) that is the whole product of the rest — the
// caller saw c's gate flip. The other components' gates are checked here;
// c's own is implied by the pinned items being fit.
//
//dyncq:hot
func (e *Engine) emitStep(acc *deltaAcc, c *comp, a *catom, items []record, sign int8) {
	for _, o := range e.comps {
		if o != c && o.cStart == 0 {
			return
		}
	}
	for ci, o := range e.comps {
		if !o.hasFree {
			continue
		}
		it := acc.iters[e.freeIdx[ci]]
		if o == c {
			it.pin(a.pathNodes[:a.free], items)
		} else {
			it.pin(nil, nil)
		}
		it.reset()
	}
	k := len(e.heads)
	for {
		n := len(acc.flat)
		acc.flat = slices.Grow(acc.flat, k)[:n+k]
		e.fillTuple(acc.flat[n:], acc.iters)
		acc.sign = append(acc.sign, sign) //dyncq:allow hotalloc the accumulator keeps its capacity between batches; growth is amortised
		if !advance(acc.iters) {
			return
		}
	}
}

// netDelta folds the accumulated steps into the batch's result delta and
// empties the accumulator: rows are sorted lexicographically, each
// distinct tuple's signs are summed — a removal and a re-addition of the
// same tuple cancel — and the survivors are copied out of engine scratch
// into the DeltaEvent contract of pkg/dyncq (disjoint, each side in
// lexicographic order, owned by the caller).
//
//dyncq:hot
func (e *Engine) netDelta(acc *deltaAcc) (added, removed [][]Value) {
	n, k := len(acc.sign), len(e.heads)
	if n == 0 {
		return nil, nil
	}
	flat, sign := acc.flat, acc.sign
	row := func(i int32) []Value { return flat[int(i)*k : int(i+1)*k] }
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return slices.Compare(row(x), row(y)) })
	out := make([]Value, 0, n*k)
	for lo := 0; lo < n; {
		hi, sum := lo, 0
		for ; hi < n && slices.Equal(row(order[hi]), row(order[lo])); hi++ {
			sum += int(sign[order[hi]])
		}
		if sum != 0 {
			out = append(out, row(order[lo])...)
			t := out[len(out)-k : len(out) : len(out)]
			switch sum {
			case 1:
				added = append(added, t) //dyncq:allow hotalloc the delta handed to the caller, O(|Δ|) by construction
			case -1:
				removed = append(removed, t) //dyncq:allow hotalloc the delta handed to the caller, O(|Δ|) by construction
			default:
				panic("core: a result tuple was added or removed twice in a row (corrupted structure)")
			}
		}
		lo = hi
	}
	acc.flat, acc.sign = flat[:0], sign[:0]
	return added, removed
}
