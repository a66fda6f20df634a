package dyndb

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file implements the parallel store phase of the sharded storage
// core: applying a validated net delta to the database on worker
// goroutines. A net delta (the output of NetDelta) has at most one
// command per (relation, tuple) pair, each known to change the store, so
// the commands grouped by updateHash shard touch pairwise disjoint
// relation shard maps — workers drain whole shards without locking, and
// within a shard commands keep their delta order, making the final store
// state identical to a sequential application at any worker count. The
// adom occurrence counts are sharded independently by value hash: every
// command contributes ±1 per tuple position to the shard of that value,
// and the per-value contributions are pre-bucketed in one cheap
// sequential pass so the count phase is shard-disjoint too.

// minParallelDelta is the delta size below which ApplyNetDelta stays
// sequential: goroutine startup dwarfs a handful of map operations.
const minParallelDelta = 32

// adomAdj is one ±1 contribution to an adom occurrence count.
type adomAdj struct {
	v     Value
	delta int8
}

// relOp is one tuple mutation bound to its (pre-resolved) relation.
type relOp struct {
	r      *Relation
	tuple  []Value
	insert bool
}

// ApplyNetDelta applies a net delta to the database and its built
// indexes, returning the number of commands applied (always
// len(survivors)). The survivors MUST come from NetDelta against the
// database's current state (or be equivalent: coalesced,
// arity-consistent, and each changing the store); ApplyNetDelta panics on
// a violated contract, exactly like the workspace layer's "validated
// delta failed to apply" guard.
//
// With workers > 1 on a sharded database (NewSharded) the commands are
// grouped by the Partition/updateHash shard and applied by up to workers
// goroutines, with the adom counting pre-bucketed per value shard; the
// resulting state is identical to the sequential path at any worker
// count. With workers <= 1, one shard, or a small delta it applies
// sequentially (bit-identical to ApplyAll over the survivors). Either
// way the indexes are then maintained under one lock for the whole delta.
//
//dyncq:hot
func (d *Database) ApplyNetDelta(survivors []Update, workers int) int {
	if workers <= 1 || d.shards == 1 || len(survivors) < minParallelDelta {
		for _, u := range survivors {
			var changed bool
			var err error
			if u.Op == OpInsert {
				changed, err = d.insert(u.Rel, u.Tuple)
			} else {
				changed, err = d.delete(u.Rel, u.Tuple)
			}
			if err != nil || !changed {
				panic(fmt.Sprintf("dyndb: net delta violates its contract at %s: changed=%v err=%v", u, changed, err))
			}
		}
	} else {
		d.applyParallel(survivors, workers)
	}
	d.indexDelta(survivors)
	return len(survivors)
}

// applyParallel is ApplyNetDelta's store phase on worker goroutines.
//
//dyncq:hot
func (d *Database) applyParallel(survivors []Update, workers int) {
	// Sequential prologue: declare fresh relations (map writes on d.rels
	// must not race with the workers reading it), resolve each command's
	// relation, bucket the tuple ops per store shard and the adom
	// adjustments per value shard, and tally the card delta.
	tupleOps := make([][]relOp, d.shards)
	adomOps := make([][]adomAdj, d.shards)
	cardDelta := 0
	for _, u := range survivors {
		if u.Op == OpInsert {
			if err := d.EnsureRelation(u.Rel, len(u.Tuple)); err != nil {
				panic("dyndb: net delta violates its contract: " + err.Error())
			}
		}
		r := d.rels[u.Rel]
		if r == nil || r.arity != len(u.Tuple) {
			panic(fmt.Sprintf("dyndb: net delta violates its contract at %s", u))
		}
		insert := u.Op == OpInsert
		s := updateHash(u.Rel, u.Tuple) % uint64(d.shards)
		tupleOps[s] = append(tupleOps[s], relOp{r: r, tuple: u.Tuple, insert: insert}) //dyncq:allow hotalloc per-shard bucket; growth is amortised over the batch, not per tuple
		delta := int8(-1)
		if insert {
			delta = 1
			cardDelta++
		} else {
			cardDelta--
		}
		for _, v := range u.Tuple {
			a := d.adomShard(v)
			adomOps[a] = append(adomOps[a], adomAdj{v: v, delta: delta}) //dyncq:allow hotalloc per-shard bucket; growth is amortised over the batch, not per tuple
		}
	}

	// Worker phase: tuple-shard tasks and adom-shard tasks are mutually
	// independent (disjoint maps), so one pool drains them all off a
	// shared counter. Per-shard adomSize deltas are summed afterwards.
	adomSizeDelta := make([]int, d.shards)
	var bad atomic.Bool
	total := 2 * d.shards
	if workers > total {
		workers = total
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				if i < d.shards {
					for _, op := range tupleOps[i] {
						m := op.r.shards[i]
						if op.insert {
							if _, present := m.Ref(op.tuple); present {
								bad.Store(true)
							}
						} else if !m.Delete(op.tuple) {
							bad.Store(true)
						}
					}
					continue
				}
				s := i - d.shards
				a := d.adom[s]
				size := 0
				for _, adj := range adomOps[s] {
					n := a[adj.v] + int(adj.delta)
					switch {
					case n == 0:
						delete(a, adj.v)
						size--
					case n == int(adj.delta) && adj.delta > 0:
						a[adj.v] = n
						size++
					case n < 0:
						bad.Store(true)
						delete(a, adj.v)
					default:
						a[adj.v] = n
					}
				}
				adomSizeDelta[s] = size
			}
		}()
	}
	wg.Wait()
	if bad.Load() {
		panic("dyndb: net delta violates its contract (no-op or underflow during parallel application)")
	}
	for _, s := range adomSizeDelta {
		d.adomSize += s
	}
	d.card += cardDelta
	d.muts += uint64(len(survivors))
}
