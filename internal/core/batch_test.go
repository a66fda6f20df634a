package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/tuplekey"
	"dyncq/internal/workload"
)

// TestApplyBatchMatchesSequential drives random q-hierarchical queries
// through the same random stream twice — one engine per update, one in
// batches — and demands identical counts, identical result sets, and
// intact invariants after every batch.
func TestApplyBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		q := workload.RandomQHierarchical(rng, workload.DefaultQHOptions())
		seq, err := newHarness(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bat, err := newHarness(q)
		if err != nil {
			t.Fatal(err)
		}
		stream := workload.RandomStream(rng, q.Schema(), 4, 150, 0.35)
		size := 1 + rng.Intn(40)
		for from := 0; from < len(stream); from += size {
			to := from + size
			if to > len(stream) {
				to = len(stream)
			}
			chunk := stream[from:to]
			for _, u := range chunk {
				if _, err := seq.Apply(u); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := bat.ApplyBatch(chunk); err != nil {
				t.Fatalf("trial %d query %s: ApplyBatch: %v", trial, q, err)
			}
			if seq.Count() != bat.Count() {
				t.Fatalf("trial %d query %s batch %d: sequential count %d, batch count %d",
					trial, q, size, seq.Count(), bat.Count())
			}
			if err := bat.CheckInvariants(); err != nil {
				t.Fatalf("trial %d query %s: %v", trial, q, err)
			}
		}
		want := map[string]bool{}
		seq.Enumerate(func(tup []Value) bool {
			want[fmt.Sprint(tup)] = true
			return true
		})
		got := 0
		bat.Enumerate(func(tup []Value) bool {
			if !want[fmt.Sprint(tup)] {
				t.Fatalf("trial %d query %s: spurious tuple %v in batched engine", trial, q, tup)
			}
			got++
			return true
		})
		if got != len(want) {
			t.Fatalf("trial %d query %s: batched engine enumerated %d tuples, sequential %d",
				trial, q, got, len(want))
		}
	}
}

// TestApplyBatchCoalesces checks that insert/delete pairs on the same
// tuple cancel: the data structure is never touched, the version does not
// advance, and the net count is 0.
func TestApplyBatchCoalesces(t *testing.T) {
	e := mustEngine(t, "Q(y) :- E(x,y), T(y)")
	v0 := e.version
	n, err := e.ApplyBatch([]dyndb.Update{
		dyndb.Insert("E", 1, 2),
		dyndb.Insert("T", 2),
		dyndb.Delete("T", 2),
		dyndb.Delete("E", 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("net applied = %d, want 0", n)
	}
	if e.version != v0 {
		t.Error("cancelled batch advanced the engine version")
	}
	if e.db.Cardinality() != 0 {
		t.Errorf("|D| = %d after cancelled batch, want 0", e.db.Cardinality())
	}
	// The last op per tuple wins: insert-delete-insert nets to one insert.
	n, err = e.ApplyBatch([]dyndb.Update{
		dyndb.Insert("E", 1, 2),
		dyndb.Delete("E", 1, 2),
		dyndb.Insert("E", 1, 2),
		dyndb.Insert("T", 2),
	})
	if err != nil || n != 2 {
		t.Fatalf("net applied = %d (%v), want 2", n, err)
	}
	if e.Count() != 1 {
		t.Errorf("count = %d, want 1", e.Count())
	}
}

// TestApplyBatchArityError checks that an arity error anywhere in the
// batch rejects the whole batch before any change, matching ivm.
func TestApplyBatchArityError(t *testing.T) {
	e := mustEngine(t, "Q(y) :- E(x,y), T(y)")
	n, err := e.ApplyBatch([]dyndb.Update{
		dyndb.Insert("E", 1, 2),
		dyndb.Insert("T", 2, 3), // arity 2 against unary T
	})
	if err == nil {
		t.Fatal("arity mismatch in batch accepted")
	}
	if n != 0 || e.db.Cardinality() != 0 {
		t.Errorf("batch partially applied: net=%d |D|=%d, want 0 0", n, e.db.Cardinality())
	}
}

// TestApplyBatchForeignArityAtomicRejection: an arity conflict on a
// relation outside the query schema (invisible to the schema check, but
// caught by dyndb.NetDelta's validation against the stored relations)
// rejects the whole batch with nothing applied — the same atomic
// contract as query-schema errors, so a failed batch never advances the
// version and outstanding iterators stay valid.
func TestApplyBatchForeignArityAtomicRejection(t *testing.T) {
	e := mustEngine(t, "Q(y) :- E(x,y), T(y)")
	if _, err := e.ApplyBatch([]dyndb.Update{dyndb.Insert("E", 1, 2), dyndb.Insert("T", 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert("X", 1); err != nil {
		t.Fatal(err)
	}
	it := e.Iterator()
	n, err := e.ApplyBatch([]dyndb.Update{
		dyndb.Delete("T", 2),
		dyndb.Insert("X", 1, 2), // X exists with arity 1: rejected atomically
	})
	if err == nil {
		t.Fatal("expected a db-level arity error")
	}
	if n != 0 {
		t.Fatalf("applied = %d on a rejected batch, want 0", n)
	}
	if e.Count() != 1 {
		t.Fatalf("count = %d after rejected batch, want 1 (nothing applied)", e.Count())
	}
	// Nothing changed, so the iterator from before the failed batch is
	// still usable.
	if _, ok := it.Next(); !ok {
		t.Fatal("iterator invalidated by a rejected batch")
	}
	// An inconsistency within the batch itself is caught the same way.
	n, err = e.ApplyBatch([]dyndb.Update{
		dyndb.Insert("Y", 1),
		dyndb.Insert("Y", 1, 2), // clashes with the batch's own declaration
	})
	if err == nil || n != 0 {
		t.Fatalf("intra-batch arity clash: n=%d err=%v, want 0 and an error", n, err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadMatchesReplayAndOracle compares the bulk Load path against
// a single-update replay and the static oracle on random databases:
// same counts, same result sets, intact invariants, and a deterministic
// enumeration order across repeated bulk loads.
func TestBulkLoadMatchesReplayAndOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		q := workload.RandomQHierarchical(rng, workload.DefaultQHOptions())
		db := workload.RandomDatabase(rng, q.Schema(), 5, 25)
		bulk, err := newHarness(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := bulk.Load(db); err != nil {
			t.Fatalf("trial %d query %s: bulk load: %v", trial, q, err)
		}
		if err := bulk.CheckInvariants(); err != nil {
			t.Fatalf("trial %d query %s: bulk load invariants: %v", trial, q, err)
		}
		replay, err := newHarness(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range db.Updates() {
			if _, err := replay.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		if bulk.Count() != replay.Count() {
			t.Fatalf("trial %d query %s: bulk count %d, replay count %d", trial, q, bulk.Count(), replay.Count())
		}
		if want := eval.Count(q, db); bulk.Count() != uint64(want) {
			t.Fatalf("trial %d query %s: bulk count %d, oracle %d", trial, q, bulk.Count(), want)
		}
		compareEnumeration(t, bulk, q, db, trial, -1)

		// Determinism: a second bulk load enumerates the same sequence.
		again, err := newHarness(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := again.Load(db); err != nil {
			t.Fatal(err)
		}
		var first, second [][]Value
		bulk.Enumerate(func(tup []Value) bool {
			first = append(first, append([]Value(nil), tup...))
			return true
		})
		again.Enumerate(func(tup []Value) bool {
			second = append(second, append([]Value(nil), tup...))
			return true
		})
		if len(first) != len(second) {
			t.Fatalf("trial %d: repeated bulk loads enumerate %d vs %d tuples", trial, len(first), len(second))
		}
		for i := range first {
			if !tuplekey.Equal(first[i], second[i]) {
				t.Fatalf("trial %d: repeated bulk loads diverge at tuple %d: %v vs %v",
					trial, i, first[i], second[i])
			}
		}
	}
}

// TestLoadEnumeratesInCanonicalOrder: after a bulk Load every fit list
// is sorted by its items' own constants, so Algorithm 1 lists the result
// in the canonical order of Table 1 — lexicographic in the free nodes'
// document order, component by component — whatever the database.
func TestLoadEnumeratesInCanonicalOrder(t *testing.T) {
	for qi, text := range deltaShapes {
		t.Run(text, func(t *testing.T) {
			q := cq.MustParse(text)
			e, err := newHarness(q)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(61 + qi)))
			if err := e.Load(workload.RandomDatabase(rng, q.Schema(), 6, 80)); err != nil {
				t.Fatal(err)
			}
			// canon[k] is the head position of the k-th free node in
			// (component, document) order.
			var canon []int
			for ci, c := range e.comps {
				for ord := range c.freeNodes {
					for i, loc := range e.heads {
						if loc.comp == ci && int(loc.freeOrd) == ord {
							canon = append(canon, i)
						}
					}
				}
			}
			key := func(tup []Value) []Value {
				k := make([]Value, len(canon))
				for j, i := range canon {
					k[j] = tup[i]
				}
				return k
			}
			got := e.Tuples()
			if want := eval.Count(q, e.db); len(got) != want {
				t.Fatalf("%d tuples, oracle %d", len(got), want)
			}
			for i := 1; i < len(got); i++ {
				if slices.Compare(key(got[i-1]), key(got[i])) >= 0 {
					t.Fatalf("tuple %d %v does not follow %v in canonical order", i, got[i], got[i-1])
				}
			}
		})
	}
}

// TestBulkLoadThenUpdates checks that the structure built by bulk Load
// behaves identically to a replay-built one under subsequent updates,
// including draining back to empty.
func TestBulkLoadThenUpdates(t *testing.T) {
	q := cq.MustParse("Q(x,y,z,yp,zp) :- R(x,y,z), R(x,y,zp), E(x,y), E(x,yp), S(x,y,z)")
	rng := rand.New(rand.NewSource(17))
	db := workload.RandomDatabase(rng, q.Schema(), 5, 30)
	e, err := newHarness(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(db); err != nil {
		t.Fatal(err)
	}
	oracle := db.Clone()
	stream := workload.RandomStream(rng, q.Schema(), 5, 200, 0.5)
	for _, u := range stream {
		if _, err := e.Apply(u); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Apply(u); err != nil {
			t.Fatal(err)
		}
		if got, want := e.Count(), eval.Count(q, oracle); got != uint64(want) {
			t.Fatalf("after %s: count %d, oracle %d", u, got, want)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Drain everything inserted so far; the structure must reach pristine
	// state even though it was built by the bulk path.
	if _, err := e.ApplyBatch(oracle.Updates()); err != nil {
		t.Fatal(err)
	}
	del := oracle.Updates()
	for i := range del {
		del[i].Op = dyndb.OpDelete
	}
	if _, err := e.ApplyBatch(del); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 0 || e.Answer() {
		t.Errorf("count=%d answer=%v after draining", e.Count(), e.Answer())
	}
	for _, c := range e.comps {
		for ni, m := range c.index {
			if m.Len() != 0 {
				t.Errorf("node %s still has %d items after draining", c.nodes[ni].name, m.Len())
			}
		}
	}
}

// TestLoadResetsNonEmptyEngine: Load follows the uniform reset-then-load
// contract — after Load the engine represents exactly the loaded
// database, discarding whatever the session held before.
func TestLoadResetsNonEmptyEngine(t *testing.T) {
	e := mustEngine(t, "Q(y) :- E(x,y), T(y)")
	if _, err := e.Insert("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	db := dyndb.New()
	db.Insert("E", 7, 8)
	db.Insert("T", 8)
	if err := e.Load(db); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 1 {
		t.Errorf("count = %d after Load, want 1 (only the loaded E(7,8),T(8))", e.Count())
	}
	if e.db.Has("E", 1, 2) {
		t.Error("pre-Load tuple E(1,2) survived a Load (want reset-then-load)")
	}
	if e.db.Cardinality() != 2 {
		t.Errorf("|D| = %d after Load, want 2", e.db.Cardinality())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// The structure must stay fully functional after the reset.
	if _, err := e.Delete("T", 8); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 0 || e.Answer() {
		t.Errorf("count=%d answer=%v after deleting T(8)", e.Count(), e.Answer())
	}
}

// BenchmarkRebuild runs the preprocessing phase for each of the
// ingest-core workload's two queries over that workload's store shape at
// 2^16 and 2^18 tuples, and reports ns per stored tuple. Rebuild is
// linear in |D|, so the figure should read alike at both sizes, up to
// cache misses and the list sort's log factor.
func BenchmarkRebuild(b *testing.B) {
	queries := []struct{ name, text string }{
		{"star", "Q(y) :- E(x,y), T(y)"},
		{"deep", "Q(x,y,z) :- R(x,y,z), E(x,y), S(x)"},
	}
	for _, n := range []int{1 << 16, 1 << 18} {
		db := dyndb.New()
		workload.FillIngestCore(db, n)
		for _, q := range queries {
			b.Run(fmt.Sprintf("%s/tuples=%d", q.name, n), func(b *testing.B) {
				e, err := New(cq.MustParse(q.text))
				if err != nil {
					b.Fatal(err)
				}
				for b.Loop() {
					e.Rebuild(db)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*db.Cardinality()), "ns/tuple")
			})
		}
	}
}
