package ivm

import (
	"math/rand"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
)

// checkAgainstOracle compares the maintainer's materialised result (and
// multiplicities) against full evaluation of the query over db.
func checkAgainstOracle(t *testing.T, m *harness, q *cq.Query, db *dyndb.Database, ctx string) {
	t.Helper()
	want := eval.CountValuations(q, db, nil)
	if want.Len() != m.result.Len() {
		t.Fatalf("%s: result has %d tuples, oracle %d", ctx, m.result.Len(), want.Len())
	}
	want.Range(func(head []Value, c int64) bool {
		if got := m.Multiplicity(head); got != c {
			t.Fatalf("%s: multiplicity of %v = %d, oracle %d", ctx, head, got, c)
		}
		return true
	})
	if err := m.db.CheckIndexes(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// TestApplyBatchMatchesOracle drives hard (non-q-hierarchical) queries,
// including self-joins, through mixed batches of several sizes and checks
// the materialised result and every multiplicity against the static
// oracle after each batch. Small batch sizes exercise the batched delta
// path, large ones the full-rebuild crossover.
func TestApplyBatchMatchesOracle(t *testing.T) {
	queries := []string{
		"Q(x,y) :- S(x), E(x,y), T(y)",     // ϕS-E-T, the canonical hard query
		"Q(x) :- E(x,y), T(y)",             // ϕE-T
		"Q(x,z) :- E(x,y), E(y,z)",         // self-join path query
		"Q() :- S(x), E(x,y), T(y)",        // Boolean hard query
		"Q(x,y) :- E(x,y), E(y,x), E(x,x)", // triple self-join
	}
	for _, qs := range queries {
		q := cq.MustParse(qs)
		for _, size := range []int{1, 3, 17, 1000} {
			rng := rand.New(rand.NewSource(int64(31 + size)))
			m, err := newHarness(q)
			if err != nil {
				t.Fatal(err)
			}
			db := dyndb.New()
			stream := workload.RandomStream(rng, q.Schema(), 5, 160, 0.35)
			for from := 0; from < len(stream); from += size {
				to := from + size
				if to > len(stream) {
					to = len(stream)
				}
				chunk := stream[from:to]
				if _, err := m.ApplyBatch(chunk); err != nil {
					t.Fatalf("query %s size %d: %v", q, size, err)
				}
				for _, u := range chunk {
					if _, err := db.Apply(u); err != nil {
						t.Fatal(err)
					}
				}
				checkAgainstOracle(t, m, q, db, qs)
			}
		}
	}
}

// TestApplyBatchDeltaPathMatchesOracle pins the heuristic to the batched
// delta path (batch far smaller than the database) and checks mixed
// insert/delete batches against the oracle.
func TestApplyBatchDeltaPathMatchesOracle(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)")
	rng := rand.New(rand.NewSource(5))
	db := workload.RandomDatabase(rng, q.Schema(), 8, 60)
	m, err := newHarness(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(db); err != nil {
		t.Fatal(err)
	}
	oracle := db.Clone()
	stream := workload.RandomStream(rng, q.Schema(), 8, 120, 0.45)
	for from := 0; from < len(stream); from += 6 {
		to := from + 6
		if to > len(stream) {
			to = len(stream)
		}
		chunk := stream[from:to]
		// 6 net commands against ~180 tuples keeps applied*3 < |D|+applied,
		// so this exercises the restricted delta joins, not the rebuild.
		if _, err := m.ApplyBatch(chunk); err != nil {
			t.Fatal(err)
		}
		for _, u := range chunk {
			if _, err := oracle.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainstOracle(t, m, q, oracle, "delta path")
	}
}

// TestApplyBatchCoalesces: cancelled pairs must produce no work and no
// result change.
func TestApplyBatchCoalesces(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)")
	m, err := newHarness(q)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.ApplyBatch([]dyndb.Update{
		dyndb.Insert("E", 1, 2),
		dyndb.Delete("E", 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || m.db.Cardinality() != 0 || m.Count() != 0 {
		t.Errorf("cancelled batch: net=%d |D|=%d count=%d, want all 0", n, m.db.Cardinality(), m.Count())
	}
	// Duplicate inserts coalesce to one net command.
	n, err = m.ApplyBatch([]dyndb.Update{
		dyndb.Insert("S", 1),
		dyndb.Insert("S", 1),
		dyndb.Insert("S", 1),
	})
	if err != nil || n != 1 {
		t.Fatalf("net = %d (%v), want 1", n, err)
	}
}

// TestApplyBatchAtomicValidation: an arity error anywhere in the batch
// rejects the whole batch before any change.
func TestApplyBatchAtomicValidation(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)")
	m, err := newHarness(q)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.ApplyBatch([]dyndb.Update{
		dyndb.Insert("S", 1),
		dyndb.Insert("E", 1), // wrong arity
	})
	if err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if n != 0 || m.db.Cardinality() != 0 {
		t.Errorf("batch partially applied: net=%d |D|=%d, want 0 0", n, m.db.Cardinality())
	}
}

// TestLoadUsesRebuild: loading an initial database into an empty
// maintainer must produce the same state as incremental replay (it takes
// the one-shot rebuild path internally).
func TestLoadUsesRebuild(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)")
	rng := rand.New(rand.NewSource(2))
	db := workload.RandomDatabase(rng, q.Schema(), 10, 80)
	bulk, err := newHarness(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.Load(db); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, bulk, q, db, "bulk load")
	inc, err := newHarness(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range db.Updates() {
		if _, err := inc.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.Count() != inc.Count() {
		t.Errorf("bulk count %d != incremental count %d", bulk.Count(), inc.Count())
	}
}

// TestApplyBatchDbErrorRejectsAtomically: a db-level arity conflict —
// against a stored relation outside the query schema, or within the
// batch's own declarations — rejects the whole batch with nothing
// applied, on both the rebuild and the delta path (NetDelta validates
// before anything moves).
func TestApplyBatchDbErrorRejectsAtomically(t *testing.T) {
	q := cq.MustParse("Q(x) :- E(x,y)")
	// Rebuild path: empty maintainer, batch crosses the heuristic. The
	// batch declares X with arity 1 and then contradicts itself.
	m, err := newHarness(q)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.ApplyBatch([]dyndb.Update{
		dyndb.Insert("E", 1, 2),
		dyndb.Insert("X", 1),
		dyndb.Insert("X", 1, 2), // clashes with the batch's own declaration
	})
	if err == nil {
		t.Fatal("expected a db-level arity error")
	}
	if n != 0 || m.db.Cardinality() != 0 || m.Count() != 0 {
		t.Errorf("rejected batch left state behind: n=%d |D|=%d count=%d", n, m.db.Cardinality(), m.Count())
	}
	checkAgainstOracle(t, m, q, m.db, "rebuild path after rejection")
	if _, err := m.Apply(dyndb.Insert("E", 3, 4)); err != nil {
		t.Fatal(err)
	}
	if m.Count() != 1 {
		t.Errorf("count = %d after recovery insert, want 1", m.Count())
	}
	// Delta path: batch small against a populated database, conflicting
	// with a stored foreign relation.
	rng := rand.New(rand.NewSource(3))
	db := workload.RandomDatabase(rng, q.Schema(), 8, 60)
	m2, err := newHarness(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Load(db); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Apply(dyndb.Insert("X", 1)); err != nil {
		t.Fatal(err)
	}
	before := m2.db.Cardinality()
	if _, err := m2.ApplyBatch([]dyndb.Update{
		dyndb.Insert("E", 100, 200),
		dyndb.Insert("X", 1, 2), // X exists with arity 1: rejected atomically
	}); err == nil {
		t.Fatal("expected a db-level arity error")
	}
	if m2.db.Cardinality() != before {
		t.Errorf("|D| = %d after rejected batch, want %d", m2.db.Cardinality(), before)
	}
	checkAgainstOracle(t, m2, q, m2.db, "delta path after rejection")
}
