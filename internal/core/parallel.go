package core

import (
	"sync"
	"sync/atomic"

	"dyncq/internal/dyndb"
)

// This file implements the parallel half of ApplyDelta over the sharded
// engine. A net delta decomposes into per-atom operations; every
// operation touches only the items under one component root value, so
// grouping operations into (component, shard-of-root-value) buckets makes
// the buckets mutually independent: worker goroutines drain whole buckets
// concurrently without any locking, and within a bucket operations keep
// their batch order, so the final structure — counters, lists, list order
// and therefore enumeration order — is identical no matter how many
// workers ran or how they were scheduled.

// bucketOp is one deferred per-atom update procedure.
type bucketOp struct {
	c      *comp
	a      *catom
	tuple  []Value
	insert bool
}

// runDeltaParallel runs the per-atom update procedures for a net delta
// of survivors (commands that changed the database) on up to workers
// goroutines: the bucket phase groups operations by (component, shard),
// then workers claim whole buckets off a shared counter so a few
// oversized buckets don't serialise behind an even split. The caller
// (ApplyDelta) owns the version bump. With acc set every step emits its
// result delta: each worker nets into an accumulator of its own, and
// since buckets are disjoint by root value the workers' rows, appended to
// acc once all have finished, are exactly the sequential path's.
func (e *Engine) runDeltaParallel(survivors []dyndb.Update, workers int, acc *deltaAcc) {
	// Bucket phase: group the per-atom operations by (component, shard).
	buckets := make([][]bucketOp, len(e.comps)*e.shardCount)
	for _, u := range survivors {
		insert := u.Op == dyndb.OpInsert
		for _, ar := range e.rels[u.Rel] {
			c := e.comps[ar.comp]
			a := &c.atoms[ar.atom]
			b := ar.comp*e.shardCount + int(e.shardOf(u.Tuple[a.extract[0]]))
			buckets[b] = append(buckets[b], bucketOp{c: c, a: a, tuple: u.Tuple, insert: insert})
		}
	}
	nonempty := buckets[:0]
	for _, b := range buckets {
		if len(b) > 0 {
			nonempty = append(nonempty, b)
		}
	}
	if len(nonempty) == 0 {
		return
	}
	if workers > len(nonempty) {
		workers = len(nonempty)
	}
	if workers == 1 {
		for _, b := range nonempty {
			for _, op := range b {
				e.updateAtomScratch(op.c, op.a, op.tuple, op.insert, e.scratch, acc)
			}
		}
		return
	}

	// Worker phase: buckets are claimed off a shared counter so a few
	// oversized buckets don't serialise behind an even split.
	var next atomic.Int64
	var wg sync.WaitGroup
	accs := make([]*deltaAcc, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		if acc != nil {
			accs[w] = e.newDeltaAcc()
		}
		go func(acc *deltaAcc) {
			defer wg.Done()
			scratch := newPathScratch(e.maxDepth)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(nonempty) {
					return
				}
				for _, op := range nonempty[i] {
					e.updateAtomScratch(op.c, op.a, op.tuple, op.insert, scratch, acc)
				}
			}
		}(accs[w])
	}
	wg.Wait()
	if acc != nil {
		for _, w := range accs {
			acc.flat = append(acc.flat, w.flat...)
			acc.sign = append(acc.sign, w.sign...)
		}
	}
}
