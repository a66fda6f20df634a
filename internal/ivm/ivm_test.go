package ivm

import (
	"math/rand"
	"strings"
	"testing"

	"dyncq/internal/allocs"
	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
)

func TestSETMaintenance(t *testing.T) {
	// ϕS-E-T is the paper's canonical hard query; IVM maintains it
	// correctly (just not with constant update time).
	m, err := newHarness(cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)"))
	if err != nil {
		t.Fatal(err)
	}
	m.Insert("S", 1)
	m.Insert("E", 1, 10)
	if m.Answer() {
		t.Error("answer yes without T")
	}
	m.Insert("T", 10)
	if !m.Answer() || m.Count() != 1 {
		t.Errorf("answer=%v count=%d, want true 1", m.Answer(), m.Count())
	}
	m.Insert("E", 1, 11)
	m.Insert("T", 11)
	if m.Count() != 2 {
		t.Errorf("count = %d, want 2", m.Count())
	}
	m.Delete("S", 1)
	if m.Count() != 0 {
		t.Errorf("count = %d after deleting S(1), want 0", m.Count())
	}
	m.Insert("S", 1)
	if m.Count() != 2 {
		t.Errorf("count = %d after re-inserting S(1), want 2", m.Count())
	}
	if !m.Has([]Value{1, 10}) || !m.Has([]Value{1, 11}) {
		t.Errorf("result tuples wrong: %v", m.Tuples())
	}
}

func TestSelfJoinDeltas(t *testing.T) {
	// ϕ1(x,y) = Exx ∧ Exy ∧ Eyy: three occurrences of E; one inserted
	// tuple can serve several occurrences at once — the inclusion–
	// exclusion deltas must not double-count.
	m, err := newHarness(cq.MustParse("Q(x,y) :- E(x,x), E(x,y), E(y,y)"))
	if err != nil {
		t.Fatal(err)
	}
	// Inserting a single loop: (1,1) serves all three occurrences.
	m.Insert("E", 1, 1)
	if m.Count() != 1 || m.Multiplicity([]Value{1, 1}) != 1 {
		t.Errorf("after loop: count=%d mult=%d, want 1 1", m.Count(), m.Multiplicity([]Value{1, 1}))
	}
	m.Insert("E", 2, 2)
	m.Insert("E", 1, 2)
	if m.Count() != 3 {
		t.Errorf("count = %d, want 3 {(1,1),(2,2),(1,2)}", m.Count())
	}
	m.Delete("E", 1, 1)
	if m.Count() != 1 || !m.Has([]Value{2, 2}) {
		t.Errorf("after deleting loop (1,1): count=%d tuples=%v, want only (2,2)", m.Count(), m.Tuples())
	}
	m.Insert("E", 1, 1)
	if m.Count() != 3 {
		t.Errorf("count = %d after re-insert, want 3", m.Count())
	}
}

func TestQuantifiedMultiplicities(t *testing.T) {
	// Q(x) = ∃y (Exy ∧ Ty): multiplicities track witnesses; the distinct
	// count collapses them.
	m, err := newHarness(cq.MustParse("Q(x) :- E(x,y), T(y)"))
	if err != nil {
		t.Fatal(err)
	}
	m.Insert("T", 10)
	m.Insert("T", 11)
	m.Insert("E", 1, 10)
	m.Insert("E", 1, 11)
	if m.Count() != 1 || m.Multiplicity([]Value{1}) != 2 {
		t.Errorf("count=%d mult=%d, want 1 2", m.Count(), m.Multiplicity([]Value{1}))
	}
	m.Delete("E", 1, 10)
	if m.Count() != 1 || m.Multiplicity([]Value{1}) != 1 {
		t.Errorf("count=%d mult=%d, want 1 1", m.Count(), m.Multiplicity([]Value{1}))
	}
	m.Delete("T", 11)
	if m.Count() != 0 {
		t.Errorf("count = %d, want 0", m.Count())
	}
}

func TestBooleanQuery(t *testing.T) {
	m, err := newHarness(cq.MustParse("Q() :- S(x), E(x,y), T(y)"))
	if err != nil {
		t.Fatal(err)
	}
	m.Insert("S", 1)
	m.Insert("E", 1, 2)
	m.Insert("T", 2)
	if !m.Answer() || m.Count() != 1 {
		t.Errorf("answer=%v count=%d, want yes 1", m.Answer(), m.Count())
	}
	m.Insert("E", 1, 3) // second witness; count stays 1 (empty tuple)
	m.Insert("T", 3)
	if m.Count() != 1 {
		t.Errorf("Boolean count = %d, want 1", m.Count())
	}
	m.Delete("T", 2)
	if !m.Answer() {
		t.Error("answer flipped although witness (1,3) remains")
	}
	m.Delete("T", 3)
	if m.Answer() {
		t.Error("answer yes with no witnesses")
	}
}

func TestDuplicateAndAbsentUpdates(t *testing.T) {
	m, err := newHarness(cq.MustParse("Q(x) :- S(x)"))
	if err != nil {
		t.Fatal(err)
	}
	if ch, _ := m.Insert("S", 1); !ch {
		t.Error("first insert unchanged")
	}
	if ch, _ := m.Insert("S", 1); ch {
		t.Error("duplicate insert changed")
	}
	if m.Count() != 1 {
		t.Errorf("count = %d, want 1", m.Count())
	}
	if ch, _ := m.Delete("S", 2); ch {
		t.Error("absent delete changed")
	}
	if ch, _ := m.Delete("S", 1); !ch || m.Count() != 0 {
		t.Errorf("delete: ch=%v count=%d", ch, m.Count())
	}
}

func TestArityMismatch(t *testing.T) {
	m, err := newHarness(cq.MustParse("Q(x) :- S(x)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert("S", 1, 2); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestLoadResets(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)")
	m, err := newHarness(q)
	if err != nil {
		t.Fatal(err)
	}
	m.Insert("S", 9)
	db := dyndb.New()
	db.Insert("S", 1)
	db.Insert("E", 1, 2)
	db.Insert("T", 2)
	if err := m.Load(db); err != nil {
		t.Fatal(err)
	}
	if m.Count() != 1 || m.db.Has("S", 9) {
		t.Errorf("count after Load = %d (S(9) kept: %v), want 1 false", m.Count(), m.db.Has("S", 9))
	}
	// Incremental updates continue from the loaded state.
	m.Delete("E", 1, 2)
	if m.Count() != 0 {
		t.Errorf("count = %d after delete, want 0", m.Count())
	}
}

// TestRandomAgainstOracle drives random queries (arbitrary CQs — both
// q-hierarchical and hard ones, with self-joins) through random update
// streams, comparing the materialised result with the static oracle after
// every step.
func TestRandomAgainstOracle(t *testing.T) {
	queries := []*cq.Query{
		cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)"),
		cq.MustParse("Q(x) :- E(x,y), T(y)"),
		cq.MustParse("Q(x,y) :- E(x,x), E(x,y), E(y,y)"),
		cq.MustParse("Q() :- E(x,y), E(y,z)"),
		cq.MustParse("Q(x,z) :- E(x,y), F(y,z)"),
		cq.MustParse("Q(y) :- E(x,y), T(y)"),
		cq.MustParse("Q(x,y,z1,z2) :- E(x,x), E(x,y), E(y,y), E(z1,z2)"),
	}
	rng := rand.New(rand.NewSource(17))
	steps := 80
	if testing.Short() {
		steps = 30
	}
	for qi, q := range queries {
		m, err := newHarness(q)
		if err != nil {
			t.Fatal(err)
		}
		db := dyndb.New()
		stream := workload.RandomStream(rng, q.Schema(), 4, steps, 0.4)
		for si, u := range stream {
			if _, err := m.Apply(u); err != nil {
				t.Fatal(err)
			}
			db.Apply(u)
			want := eval.Evaluate(q, db)
			if int(m.Count()) != want.Len() {
				t.Fatalf("query %d (%s) step %d (%s): count %d, oracle %d",
					qi, q, si, u, m.Count(), want.Len())
			}
			for _, tup := range m.Tuples() {
				if !want.Has(tup) {
					t.Fatalf("query %d step %d: spurious %v", qi, si, tup)
				}
			}
		}
	}
}

// TestRandomQHierarchicalAgainstOracle additionally cross-checks IVM on
// generated q-hierarchical queries, where it must agree with both the
// oracle and (transitively, via the core tests) the dynamic engine.
func TestRandomQHierarchicalAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		q := workload.RandomQHierarchical(rng, workload.DefaultQHOptions())
		m, err := newHarness(q)
		if err != nil {
			t.Fatal(err)
		}
		db := dyndb.New()
		for si, u := range workload.RandomStream(rng, q.Schema(), 3, 60, 0.35) {
			m.Apply(u)
			db.Apply(u)
			if want := eval.Count(q, db); int(m.Count()) != want {
				t.Fatalf("trial %d (%s) step %d: count %d, oracle %d", trial, q, si, m.Count(), want)
			}
		}
	}
}

// TestDeltaJoinAllocationFree: an S-insert on ϕS-E-T costs a delta join
// over the key's E tuples — `degree` valuations, each landing a head
// tuple in the result — and none of that allocates: 100 insert commits
// and the 100 delete commits that restore the state allocate nothing
// under the maintainer's four batch hooks (allocs.Count), at degree 5 and
// at degree 50, while the first pair, which builds the E index, is
// counted. Nobody asks for the result delta. (The harness's own
// per-relation grouping allocates, and is not counted.)
func TestDeltaJoinAllocationFree(t *testing.T) {
	frames := []string{"dyncq/internal/ivm.(*Maintainer).BeginBatch", "dyncq/internal/ivm.(*Maintainer).PreDelete",
		"dyncq/internal/ivm.(*Maintainer).PostInsert", "dyncq/internal/ivm.(*Maintainer).FinishBatch"}
	for _, degree := range []int{5, 50} {
		const keys = 40
		h, err := newHarness(cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)"))
		if err != nil {
			t.Fatal(err)
		}
		var load []dyndb.Update
		for y := 0; y < degree; y++ {
			load = append(load, dyndb.Insert("T", Value(y)))
			for x := 0; x < keys; x++ {
				load = append(load, dyndb.Insert("E", Value(x), Value(y)))
			}
		}
		for x := 0; x < keys/2; x++ {
			load = append(load, dyndb.Insert("S", Value(x)))
		}
		if _, err := h.ApplyBatch(load); err != nil {
			t.Fatal(err)
		}
		base := h.Count()
		ins, del := []dyndb.Update{dyndb.Insert("S", keys-1)}, []dyndb.Update{dyndb.Delete("S", keys-1)}
		pair := func() {
			if _, err := h.ApplyBatch(ins); err != nil || h.Count() != base+uint64(degree) {
				t.Fatalf("degree %d: S-insert left %d tuples (err %v), want %d", degree, h.Count(), err, base+uint64(degree))
			}
			if _, err := h.ApplyBatch(del); err != nil || h.Count() != base {
				t.Fatalf("degree %d: S-delete left %d tuples (err %v), want %d", degree, h.Count(), err, base)
			}
		}
		if n, _ := allocs.Count(pair, frames...); n == 0 {
			t.Fatalf("degree %d: the first pair, which builds the E index, counted no allocation: the frames name nothing", degree)
		}
		n, stacks := allocs.Count(func() {
			for range 100 {
				pair()
			}
		}, frames...)
		t.Logf("degree %d: %d allocations over 100 insert/delete pairs", degree, n)
		if n != 0 {
			t.Errorf("degree %d: 100 S-insert/S-delete pairs allocated %d times, want 0:\n%s", degree, n, strings.Join(stacks, "\n"))
		}
	}
}
