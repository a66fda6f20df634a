package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/tuplekey"
	"dyncq/internal/workload"
)

// TestNewShardValidation: shard counts round up to powers of two and
// non-positive counts are rejected.
func TestNewShardValidation(t *testing.T) {
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	for _, c := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16}} {
		e, err := newHarness(q, c.in)
		if err != nil {
			t.Fatalf("New(q, %d): %v", c.in, err)
		}
		if e.Shards() != c.want {
			t.Errorf("New(q, %d).Shards() = %d, want %d", c.in, e.Shards(), c.want)
		}
	}
	if _, err := newHarness(q, 0); err == nil {
		t.Error("New(q, 0): want error")
	}
}

// TestShardedEngineAgrees drives identical streams through unsharded and
// sharded engines: counts, answers and tuple sets must agree with each
// other and the oracle at every checkpoint, and the sharded invariants
// (including shard assignment) must hold.
func TestShardedEngineAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	queries := []*cq.Query{
		cq.MustParse("Q(y) :- E(x,y), T(y)"),
		cq.MustParse("Q(x,y,z,yp,zp) :- R(x,y,z), R(x,y,zp), E(x,y), E(x,yp), S(x,y,z)"),
		cq.MustParse("Q(x,u) :- S(x), U(u)"), // disconnected: per-component sharding
	}
	for i := 0; i < 4; i++ {
		queries = append(queries, workload.RandomQHierarchical(rng, workload.DefaultQHOptions()))
	}
	for _, q := range queries {
		plain, err := newHarness(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := newHarness(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		db := dyndb.New()
		stream := workload.RandomStream(rng, q.Schema(), 6, 150, 0.4)
		for ui, u := range stream {
			if _, err := db.Apply(u); err != nil {
				t.Fatal(err)
			}
			if _, err := plain.Apply(u); err != nil {
				t.Fatalf("%s plain: %v", q, err)
			}
			if _, err := sharded.Apply(u); err != nil {
				t.Fatalf("%s sharded: %v", q, err)
			}
			if ui%30 != 29 && ui != len(stream)-1 {
				continue
			}
			if plain.Count() != sharded.Count() {
				t.Fatalf("%s after %d updates: plain count %d, sharded %d", q, ui+1, plain.Count(), sharded.Count())
			}
			if want := eval.Count(q, db); sharded.Count() != uint64(want) {
				t.Fatalf("%s after %d updates: sharded count %d, oracle %d", q, ui+1, sharded.Count(), want)
			}
			if plain.Answer() != sharded.Answer() {
				t.Fatalf("%s: answers disagree", q)
			}
			if !sameTupleSet(plain.Tuples(), sharded.Tuples()) {
				t.Fatalf("%s after %d updates: tuple sets disagree", q, ui+1)
			}
			if err := sharded.checkInvariants(); err != nil {
				t.Fatalf("%s sharded invariants: %v", q, err)
			}
		}
	}
}

// TestParallelBatchMatchesSequential: on engines with the same shard
// count, the parallel batch path must produce state byte-for-byte
// equivalent to the sequential one — same counts, same enumeration ORDER
// — regardless of the worker count, including after a bulk load.
func TestParallelBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, qs := range []string{
		"Q(y) :- E(x,y), T(y)",
		"Q(x,y,z,yp,zp) :- R(x,y,z), R(x,y,zp), E(x,y), E(x,yp), S(x,y,z)",
	} {
		q := cq.MustParse(qs)
		init := workload.RandomDatabase(rng, q.Schema(), 10, 80)
		stream := workload.RandomStream(rng, q.Schema(), 10, 400, 0.4)
		for _, workers := range []int{2, 3, 8} {
			seq, err := newHarness(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := seq.Load(init); err != nil {
				t.Fatal(err)
			}
			par, err := newHarness(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := par.Load(init); err != nil {
				t.Fatal(err)
			}
			const chunk = 50
			for from := 0; from < len(stream); from += chunk {
				to := from + chunk
				if to > len(stream) {
					to = len(stream)
				}
				ns, err := seq.ApplyBatch(stream[from:to])
				if err != nil {
					t.Fatal(err)
				}
				np, err := par.ApplyBatchWorkers(stream[from:to], workers)
				if err != nil {
					t.Fatal(err)
				}
				if ns != np {
					t.Fatalf("%s workers=%d: applied %d sequentially, %d in parallel", q, workers, ns, np)
				}
				if seq.Count() != par.Count() {
					t.Fatalf("%s workers=%d: counts diverge (%d vs %d)", q, workers, seq.Count(), par.Count())
				}
			}
			if err := par.checkInvariants(); err != nil {
				t.Fatalf("%s workers=%d: %v", q, workers, err)
			}
			if !sameEnumerationOrder(seq, par) {
				t.Fatalf("%s workers=%d: enumeration order diverged from sequential", q, workers)
			}
			// Subsequent sequential updates on the parallel-built structure
			// must keep agreeing (the structure is not subtly corrupted).
			if _, err := par.ApplyBatch(init.Updates()); err != nil {
				t.Fatal(err)
			}
			if _, err := seq.ApplyBatch(init.Updates()); err != nil {
				t.Fatal(err)
			}
			if seq.Count() != par.Count() {
				t.Fatalf("%s workers=%d: post-batch counts diverge", q, workers)
			}
		}
	}
}

// TestParallelBatchDrain: a parallel batch that deletes everything
// returns the sharded structure to pristine state.
func TestParallelBatchDrain(t *testing.T) {
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	rng := rand.New(rand.NewSource(47))
	db := workload.RandomDatabase(rng, q.Schema(), 20, 100)
	e, err := newHarness(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(db); err != nil {
		t.Fatal(err)
	}
	del := db.Updates()
	for i := range del {
		del[i].Op = dyndb.OpDelete
	}
	if _, err := e.ApplyBatchWorkers(del, 4); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 0 || e.Answer() || e.db.Cardinality() != 0 {
		t.Errorf("count=%d answer=%v |D|=%d after parallel drain", e.Count(), e.Answer(), e.db.Cardinality())
	}
	for _, c := range e.comps {
		for si := range c.shards {
			for ni, m := range c.shards[si].index {
				if m.Len() != 0 {
					t.Errorf("node %s shard %d: %d items left after drain", c.nodes[ni].name, si, m.Len())
				}
			}
		}
	}
}

// TestParallelBatchErrors: arity errors — against the query schema
// or against a stored relation outside it — reject the whole batch
// atomically, exactly like the sequential path.
func TestParallelBatchErrors(t *testing.T) {
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	e, err := newHarness(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyBatchWorkers([]dyndb.Update{
		dyndb.Insert("E", 1, 2),
		dyndb.Insert("T", 2, 3), // arity mismatch against the query
	}, 4); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if e.db.Cardinality() != 0 {
		t.Fatalf("|D| = %d after rejected batch, want 0 (atomic rejection)", e.db.Cardinality())
	}
	// db-level error on a relation outside the query schema: NetDelta's
	// store validation rejects the batch with nothing applied.
	if _, err := e.Apply(dyndb.Insert("X", 1)); err != nil {
		t.Fatal(err)
	}
	n, err := e.ApplyBatchWorkers([]dyndb.Update{
		dyndb.Insert("E", 1, 2),
		dyndb.Insert("T", 2),
		dyndb.Insert("X", 1, 2), // X exists with arity 1: rejected atomically
		dyndb.Insert("E", 3, 4),
	}, 4)
	if err == nil {
		t.Fatal("expected a db-level arity error")
	}
	if n != 0 {
		t.Errorf("applied = %d on a rejected batch, want 0", n)
	}
	if e.Count() != 0 {
		t.Errorf("count = %d after rejected batch, want 0", e.Count())
	}
	if e.db.Cardinality() != 1 {
		t.Errorf("|D| = %d after rejected batch, want 1 (only the X tuple)", e.db.Cardinality())
	}
	if err := e.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func sameEnumerationOrder(a, b *harness) bool {
	var ta, tb [][]Value
	a.Enumerate(func(t []Value) bool { ta = append(ta, append([]Value(nil), t...)); return true })
	b.Enumerate(func(t []Value) bool { tb = append(tb, append([]Value(nil), t...)); return true })
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if !tuplekey.Equal(ta[i], tb[i]) {
			return false
		}
	}
	return true
}

func sameTupleSet(a, b [][]Value) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, t := range a {
		seen[fmt.Sprint(t)]++
	}
	for _, t := range b {
		k := fmt.Sprint(t)
		if seen[k] == 0 {
			return false
		}
		seen[k]--
	}
	return true
}
