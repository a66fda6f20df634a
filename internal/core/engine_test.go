package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
)

func mustEngine(t *testing.T, query string) *harness {
	t.Helper()
	e, err := newHarness(cq.MustParse(query), 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRejectsNonQHierarchical(t *testing.T) {
	for _, q := range []string{
		"Q(x,y) :- S(x), E(x,y), T(y)", // ϕS-E-T
		"Q() :- S(x), E(x,y), T(y)",    // ϕ'S-E-T
		"Q(x) :- E(x,y), T(y)",         // ϕE-T
		"Q(x,y) :- E(x,x), E(x,y), E(y,y)",
	} {
		_, err := newHarness(cq.MustParse(q), 1)
		if err == nil {
			t.Errorf("New(%s) succeeded, want ErrNotQHierarchical", q)
			continue
		}
		if !errors.Is(err, ErrNotQHierarchical) {
			t.Errorf("New(%s): error %v does not wrap ErrNotQHierarchical", q, err)
		}
	}
}

func TestRejectsInvalidQuery(t *testing.T) {
	bad := &cq.Query{Name: "Q", Head: []string{"x"}, Atoms: nil}
	if _, err := newHarness(bad, 1); err == nil {
		t.Error("New accepted an atom-less query")
	}
}

func TestBooleanAnswerUnderUpdates(t *testing.T) {
	// ∃x∃y (Exy ∧ Ty) is q-hierarchical (Section 3).
	e := mustEngine(t, "Q() :- E(x,y), T(y)")
	if e.Answer() {
		t.Error("empty database answers yes")
	}
	e.Insert("E", 1, 2)
	if e.Answer() {
		t.Error("yes without T")
	}
	e.Insert("T", 2)
	if !e.Answer() {
		t.Error("no after E(1,2), T(2)")
	}
	if got := e.Count(); got != 1 {
		t.Errorf("Boolean count = %d, want 1", got)
	}
	e.Delete("E", 1, 2)
	if e.Answer() {
		t.Error("yes after deleting the only edge")
	}
	if got := e.Count(); got != 0 {
		t.Errorf("Boolean count = %d, want 0", got)
	}
	// Boolean enumeration: exactly one empty tuple when yes.
	e.Insert("E", 3, 2)
	n := 0
	e.Enumerate(func(tup []Value) bool {
		if len(tup) != 0 {
			t.Errorf("Boolean tuple has arity %d", len(tup))
		}
		n++
		return true
	})
	if n != 1 {
		t.Errorf("Boolean enumeration yielded %d tuples, want 1", n)
	}
}

func TestCountWithQuantifier(t *testing.T) {
	// Q(y) = ∃x (Exy ∧ Ty): count distinct y, not valuations.
	e := mustEngine(t, "Q(y) :- E(x,y), T(y)")
	e.Insert("T", 10)
	e.Insert("T", 11)
	e.Insert("E", 1, 10)
	e.Insert("E", 2, 10) // second witness for y=10: count must stay 1 for y=10
	if got := e.Count(); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
	e.Insert("E", 1, 11)
	if got := e.Count(); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	e.Delete("E", 1, 10)
	if got := e.Count(); got != 2 {
		t.Errorf("count = %d, want 2 (witness x=2 remains)", got)
	}
	e.Delete("E", 2, 10)
	if got := e.Count(); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
	got := e.Tuples()
	if len(got) != 1 || got[0][0] != 11 {
		t.Errorf("Tuples = %v, want [[11]]", got)
	}
}

func TestDisconnectedProduct(t *testing.T) {
	// ϕ(D) = ϕ1(D) × ϕ2(D) for disconnected queries (Section 6 intro).
	e := mustEngine(t, "Q(x,u) :- S(x), U(u)")
	e.Insert("S", 1)
	e.Insert("S", 2)
	e.Insert("U", 7)
	e.Insert("U", 8)
	e.Insert("U", 9)
	if got := e.Count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	tuples := e.Tuples()
	if len(tuples) != 6 {
		t.Fatalf("enumerated %d tuples, want 6: %v", len(tuples), tuples)
	}
	seen := map[[2]Value]bool{}
	for _, tp := range tuples {
		seen[[2]Value{tp[0], tp[1]}] = true
	}
	for _, x := range []Value{1, 2} {
		for _, u := range []Value{7, 8, 9} {
			if !seen[[2]Value{x, u}] {
				t.Errorf("missing (%d,%d)", x, u)
			}
		}
	}
	e.Delete("U", 7)
	e.Delete("U", 8)
	e.Delete("U", 9)
	if got := e.Count(); got != 0 {
		t.Errorf("count = %d, want 0 after emptying U", got)
	}
	if got := e.Tuples(); len(got) != 0 {
		t.Errorf("enumerated %v from empty product", got)
	}
}

func TestBooleanComponentGatesProduct(t *testing.T) {
	// Q(x) :- S(x), E(u,w): the E component is Boolean; the result is S
	// if E is nonempty, else empty.
	e := mustEngine(t, "Q(x) :- S(x), E(u,w)")
	e.Insert("S", 1)
	e.Insert("S", 2)
	if e.Count() != 0 || e.Answer() {
		t.Error("nonempty result with empty Boolean component")
	}
	if got := e.Tuples(); len(got) != 0 {
		t.Errorf("Tuples = %v, want empty", got)
	}
	e.Insert("E", 5, 6)
	if e.Count() != 2 || !e.Answer() {
		t.Errorf("count = %d answer = %v, want 2 true", e.Count(), e.Answer())
	}
	if got := e.Tuples(); len(got) != 2 {
		t.Errorf("Tuples = %v, want 2 tuples", got)
	}
	e.Delete("E", 5, 6)
	if e.Count() != 0 {
		t.Error("Boolean component delete not reflected")
	}
}

func TestSelfJoinQHierarchical(t *testing.T) {
	// Self-joins are fine for the upper bound as long as the query is
	// q-hierarchical: Q(x) :- E(x,x) plus a second occurrence of E.
	e := mustEngine(t, "Q(x,y) :- E(x,y), E(x,y)")
	e.Insert("E", 1, 2)
	if got := e.Count(); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
	e2 := mustEngine(t, "Q(x) :- E(x,x)")
	e2.Insert("E", 1, 2)
	e2.Insert("E", 3, 3)
	if got := e2.Count(); got != 1 {
		t.Errorf("count = %d, want 1 (only the loop)", got)
	}
	got := e2.Tuples()
	if len(got) != 1 || got[0][0] != 3 {
		t.Errorf("Tuples = %v, want [[3]]", got)
	}
	e2.Delete("E", 3, 3)
	if e2.Answer() {
		t.Error("loop deleted but answer still yes")
	}
}

func TestRepeatedVariablePatterns(t *testing.T) {
	// R(x,y,x): only tuples with first = third position match.
	e := mustEngine(t, "Q(x,y) :- R(x,y,x)")
	e.Insert("R", 1, 2, 3) // no match
	if e.Answer() {
		t.Error("non-matching tuple satisfied the pattern")
	}
	e.Insert("R", 1, 2, 1)
	if !e.Answer() || e.Count() != 1 {
		t.Errorf("answer=%v count=%d, want true 1", e.Answer(), e.Count())
	}
	got := e.Tuples()
	if len(got) != 1 || got[0][0] != 1 || got[0][1] != 2 {
		t.Errorf("Tuples = %v", got)
	}
	e.Delete("R", 1, 2, 1)
	if e.Answer() {
		t.Error("delete of matching tuple ignored")
	}
	// The non-matching tuple is still stored in the database.
	if !e.db.Has("R", 1, 2, 3) {
		t.Error("non-matching tuple lost from database")
	}
}

func TestDuplicateInsertAndAbsentDelete(t *testing.T) {
	e := mustEngine(t, "Q(y) :- E(x,y), T(y)")
	if ch, _ := e.Insert("E", 1, 2); !ch {
		t.Error("first insert reported unchanged")
	}
	if ch, _ := e.Insert("E", 1, 2); ch {
		t.Error("duplicate insert reported change")
	}
	e.Insert("T", 2)
	if e.Count() != 1 {
		t.Errorf("count = %d, want 1", e.Count())
	}
	if ch, _ := e.Delete("E", 9, 9); ch {
		t.Error("absent delete reported change")
	}
	e.Delete("E", 1, 2)
	if e.Count() != 0 {
		t.Errorf("count = %d after delete, want 0", e.Count())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestArityMismatchRejected(t *testing.T) {
	e := mustEngine(t, "Q(y) :- E(x,y), T(y)")
	if _, err := e.Insert("E", 1); err == nil {
		t.Error("arity-1 insert into binary E accepted")
	}
	if _, err := e.Delete("T", 1, 2); err == nil {
		t.Error("arity-2 delete from unary T accepted")
	}
}

func TestUnknownRelationUpdates(t *testing.T) {
	e := mustEngine(t, "Q(y) :- E(x,y), T(y)")
	ch, err := e.Insert("Unrelated", 1, 2, 3)
	if err != nil || !ch {
		t.Fatalf("insert into unrelated relation: %v %v", ch, err)
	}
	if e.db.Cardinality() != 1 {
		t.Errorf("|D| = %d, want 1", e.db.Cardinality())
	}
	if e.Answer() {
		t.Error("unrelated tuple affected the query")
	}
}

func TestIteratorInvalidatedByUpdate(t *testing.T) {
	e := mustEngine(t, "Q(y) :- E(x,y), T(y)")
	e.Insert("E", 1, 2)
	e.Insert("T", 2)
	it := e.Iterator()
	if _, ok := it.Next(); !ok {
		t.Fatal("expected one tuple")
	}
	e.Insert("E", 1, 3)
	defer func() {
		if recover() == nil {
			t.Error("Next on stale iterator did not panic")
		}
	}()
	it.Next()
}

func TestStatsAccessors(t *testing.T) {
	e := mustEngine(t, "Q(y) :- E(x,y), T(y)")
	e.Insert("E", 1, 2)
	e.Insert("T", 2)
	if e.db.Cardinality() != 2 || e.db.ActiveDomainSize() != 2 {
		t.Errorf("|D|=%d n=%d, want 2 2", e.db.Cardinality(), e.db.ActiveDomainSize())
	}
	if e.db.Size() <= 0 {
		t.Error("DatabaseSize not positive")
	}
	if e.Query().String() == "" {
		t.Error("Query accessor broken")
	}
	if !e.db.Has("E", 1, 2) || e.db.Has("E", 2, 1) {
		t.Error("Has broken")
	}
}

func TestLoadEqualsIncremental(t *testing.T) {
	q := cq.MustParse("Q(x,y,z,yp,zp) :- R(x,y,z), R(x,y,zp), E(x,y), E(x,yp), S(x,y,z)")
	rng := rand.New(rand.NewSource(21))
	db := workload.RandomDatabase(rng, q.Schema(), 6, 30)
	bulk, err := newHarness(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.Load(db); err != nil {
		t.Fatal(err)
	}
	inc, err := newHarness(q, 1)
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
	if bulk.Count() != uint64(eval.Count(q, db)) {
		t.Errorf("engine count %d != eval count %d", bulk.Count(), eval.Count(q, db))
	}
}

// TestRandomAgainstOracle is the central correctness test of the engine:
// random q-hierarchical queries (with self-joins, repeated variables,
// quantifiers, multiple components) are maintained through random
// insert/delete streams; after every update the engine's Answer and Count
// must match the static oracle, and periodically the enumerated result
// set and all internal invariants are checked.
func TestRandomAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 120
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		q := workload.RandomQHierarchical(rng, workload.DefaultQHOptions())
		e, err := newHarness(q, 1)
		if err != nil {
			t.Fatalf("trial %d: New(%s): %v", trial, q, err)
		}
		db := dyndb.New()
		stream := workload.RandomStream(rng, q.Schema(), 4, 120, 0.35)
		for si, u := range stream {
			if _, err := e.Apply(u); err != nil {
				t.Fatalf("trial %d step %d (%s): %v", trial, si, u, err)
			}
			if _, err := db.Apply(u); err != nil {
				t.Fatal(err)
			}
			wantCount := eval.Count(q, db)
			if got := e.Count(); got != uint64(wantCount) {
				t.Fatalf("trial %d step %d (%s) query %s: Count = %d, oracle %d",
					trial, si, u, q, got, wantCount)
			}
			if got, want := e.Answer(), eval.Answer(q, db); got != want {
				t.Fatalf("trial %d step %d query %s: Answer = %v, oracle %v", trial, si, q, got, want)
			}
			if si%40 == 39 {
				compareEnumeration(t, e, q, db, trial, si)
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("trial %d step %d query %s: %v", trial, si, q, err)
				}
			}
		}
		compareEnumeration(t, e, q, db, trial, len(stream))
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("trial %d query %s: %v", trial, q, err)
		}
	}
}

func compareEnumeration(t *testing.T, e *harness, q *cq.Query, db *dyndb.Database, trial, step int) {
	t.Helper()
	want := eval.Evaluate(q, db)
	seen := map[string]bool{}
	e.Enumerate(func(tup []Value) bool {
		k := fmt.Sprint(tup)
		if seen[k] {
			t.Fatalf("trial %d step %d query %s: duplicate tuple %v", trial, step, q, tup)
		}
		seen[k] = true
		if !want.Has(tup) {
			t.Fatalf("trial %d step %d query %s: spurious tuple %v", trial, step, q, tup)
		}
		return true
	})
	if len(seen) != want.Len() {
		t.Fatalf("trial %d step %d query %s: enumerated %d tuples, oracle %d",
			trial, step, q, len(seen), want.Len())
	}
}

// TestDeepPathQuery exercises long root paths (arity-5 atom) where the
// bottom-up propagation crosses many levels.
func TestDeepPathQuery(t *testing.T) {
	e := mustEngine(t, "Q(a,b) :- R(a,b,c,d,f), S(a,b), T(a)")
	db := dyndb.New()
	q := e.Query()
	rng := rand.New(rand.NewSource(4))
	stream := workload.RandomStream(rng, q.Schema(), 3, 300, 0.4)
	for _, u := range stream {
		if _, err := e.Apply(u); err != nil {
			t.Fatal(err)
		}
		db.Apply(u)
		if got, want := e.Count(), eval.Count(q, db); got != uint64(want) {
			t.Fatalf("after %s: count %d, oracle %d", u, got, want)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainToEmpty inserts a block and deletes everything, verifying the
// structure returns to pristine state (no leftover items).
func TestDrainToEmpty(t *testing.T) {
	e := mustEngine(t, "Q(x,y,z,yp,zp) :- R(x,y,z), R(x,y,zp), E(x,y), E(x,yp), S(x,y,z)")
	rng := rand.New(rand.NewSource(8))
	db := workload.RandomDatabase(rng, e.Query().Schema(), 4, 40)
	if err := e.Load(db); err != nil {
		t.Fatal(err)
	}
	for _, u := range db.Updates() {
		if _, err := e.Delete(u.Rel, u.Tuple...); err != nil {
			t.Fatal(err)
		}
	}
	if e.Count() != 0 || e.Answer() {
		t.Errorf("count=%d answer=%v after draining", e.Count(), e.Answer())
	}
	for _, c := range e.comps {
		for si := range c.shards {
			sh := &c.shards[si]
			for ni, m := range sh.index {
				if m.Len() != 0 {
					t.Errorf("node %s still has %d items after draining", c.nodes[ni].name, m.Len())
				}
			}
			if sh.start != 0 {
				t.Error("start list not empty after draining")
			}
			if sh.cStart != 0 || sh.cfStart != 0 {
				t.Errorf("cStart=%d cfStart=%d after draining", sh.cStart, sh.cfStart)
			}
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	e := mustEngine(t, "Q(x,u) :- S(x), U(u)")
	for i := Value(1); i <= 10; i++ {
		e.Insert("S", i)
		e.Insert("U", i+100)
	}
	n := 0
	e.Enumerate(func([]Value) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop after %d tuples, want 7", n)
	}
}
