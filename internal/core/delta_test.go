package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
)

// deltaShapes are the query shapes the native delta is checked on: every
// way a step can change the result — a flip at the root, below it, behind
// a quantified tail, through a self-join's second occurrence, in a
// sibling component, and through a Boolean gate.
var deltaShapes = []string{
	"Q(y) :- E(x,y), T(y)",                     // star
	"Q(x) :- E(x,y)",                           // quantified tail below the free prefix
	"Q(x,y) :- E(x,y), T(y)",                   // feed
	"Q(x,y,z) :- R(x,y,z), E(x,y), S(x)",       // deep path
	"Q(x,y,z) :- E(x,y), E(x,z)",               // branching self-join: the second occurrence pins {x,z} around y
	"Q(x,y) :- E(x,y), E(x,x)",                 // repeated-variable self-join
	"Q(x,y) :- S(x), T(y)",                     // disconnected: product with a sibling component
	"Q(x) :- S(x), T(y)",                       // Boolean-gated
	"Q(x,y,w,z) :- E(x,y), R(x,y,w), U(x,z)",   // U pins {x,z}, skipping the whole y subtree in document order
	"Q(x,y,u,v) :- E(x,y), E(u,v)",             // one relation feeding two components
	"Q(x) :- E(x,y), E(y,x), S(x), T(z), U(z)", // swapped-column self-join behind a two-atom gate
}

// sortedCopy returns the tuples in lexicographic order, as deltas arrive.
func sortedCopy(ts [][]Value) [][]Value {
	out := slices.Clone(ts)
	slices.SortFunc(out, func(a, b []Value) int { return slices.Compare(a, b) })
	return out
}

// setDiff returns a \ b, sorted.
func setDiff(a, b [][]Value) [][]Value {
	in := make(map[string]bool, len(b))
	for _, t := range b {
		in[fmt.Sprint(t)] = true
	}
	var out [][]Value
	for _, t := range a {
		if !in[fmt.Sprint(t)] {
			out = append(out, t)
		}
	}
	return sortedCopy(out)
}

func sameTuples(a, b [][]Value) bool {
	return slices.EqualFunc(a, b, func(x, y []Value) bool { return slices.Equal(x, y) })
}

// TestNativeDeltaMatchesSetDifference: at every commit of a seeded stream
// — single updates, batches, a drain to empty and a refill — the delta
// ApplyDelta emits equals the set difference of Tuples() before and
// after, in the DeltaEvent order, and Contains agrees with the result on
// members and near misses. Shards and workers vary because each worker
// nets into its own accumulator.
func TestNativeDeltaMatchesSetDifference(t *testing.T) {
	for qi, text := range deltaShapes {
		q, err := cq.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/shards=%d/workers=%d", text, shards, workers), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(1000*qi + 10*shards + workers)))
					h, err := newHarness(q, shards)
					if err != nil {
						t.Fatal(err)
					}
					h.emit = true
					before := h.Tuples()
					commit := func(where string, batch []dyndb.Update, single bool) {
						t.Helper()
						h.added, h.removed = nil, nil
						if single {
							_, err = h.Apply(batch[0])
						} else {
							_, err = h.ApplyBatchWorkers(batch, workers)
						}
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						after := h.Tuples()
						if want := setDiff(after, before); !sameTuples(h.added, want) {
							t.Fatalf("%s: added %v, set difference %v", where, h.added, want)
						}
						if want := setDiff(before, after); !sameTuples(h.removed, want) {
							t.Fatalf("%s: removed %v, set difference %v", where, h.removed, want)
						}
						checkContains(t, where, h, rng)
						before = after
					}
					stream := workload.RandomStream(rng, q.Schema(), 5, 260, 0.45)
					for i, u := range stream[:120] {
						commit(fmt.Sprintf("update %d (%s)", i, u), []dyndb.Update{u}, true)
					}
					for from := 120; from < len(stream); from += 20 {
						commit(fmt.Sprintf("batch at %d", from), stream[from:from+20], false)
					}
					// Drain to empty in one batch, refill in another: every
					// list empties and every recycled item comes back.
					var drain []dyndb.Update
					for _, u := range h.db.Updates() {
						drain = append(drain, dyndb.Delete(u.Rel, u.Tuple...))
					}
					refill := h.db.Updates()
					commit("drain", drain, false)
					if len(before) != 0 {
						t.Fatalf("drained engine still holds %d tuples", len(before))
					}
					commit("refill", refill, false)
					if err := h.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					if want := eval.Evaluate(q, h.db).Tuples(); !sameTuples(sortedCopy(before), want) {
						t.Fatalf("after refill: result %v, oracle %v", sortedCopy(before), want)
					}
				})
			}
		}
	}
}

// checkContains probes Contains with every result tuple, with each of
// them nudged in one position, and with a wrong arity.
func checkContains(t *testing.T, where string, h *harness, rng *rand.Rand) {
	t.Helper()
	result := h.Tuples()
	in := make(map[string]bool, len(result))
	for _, tup := range result {
		in[fmt.Sprint(tup)] = true
		if !h.Contains(tup) {
			t.Fatalf("%s: Contains(%v) = false for a result tuple", where, tup)
		}
	}
	for _, tup := range result {
		if len(tup) == 0 {
			continue
		}
		miss := slices.Clone(tup)
		miss[rng.Intn(len(miss))] = Value(rng.Intn(7))
		if got := h.Contains(miss); got != in[fmt.Sprint(miss)] {
			t.Fatalf("%s: Contains(%v) = %v, result membership %v", where, miss, got, !got)
		}
	}
	if h.Contains(make([]Value, len(h.heads)+1)) {
		t.Fatalf("%s: Contains accepted a tuple of the wrong arity", where)
	}
}
