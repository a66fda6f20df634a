package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/tuplekey"
)

func mkdb(t *testing.T, inserts ...dyndb.Update) *dyndb.Database {
	t.Helper()
	db := dyndb.New()
	if err := db.ApplyAll(inserts); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestEvaluateSET(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)")
	db := mkdb(t,
		dyndb.Insert("S", 1), dyndb.Insert("S", 2),
		dyndb.Insert("E", 1, 10), dyndb.Insert("E", 1, 11), dyndb.Insert("E", 3, 10),
		dyndb.Insert("T", 10),
	)
	res := Evaluate(q, db)
	if res.Len() != 1 {
		t.Fatalf("|result| = %d, want 1: %v", res.Len(), res.Tuples())
	}
	if !res.Has([]Value{1, 10}) {
		t.Errorf("missing (1,10): %v", res.Tuples())
	}
	if !Answer(q, db) {
		t.Error("Answer = false")
	}
	if Count(q, db) != 1 {
		t.Error("Count != 1")
	}
}

func TestEvaluateProjection(t *testing.T) {
	// ϕE-T(x) = ∃y (Exy ∧ Ty): distinct x only.
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	db := mkdb(t,
		dyndb.Insert("E", 1, 10), dyndb.Insert("E", 1, 11),
		dyndb.Insert("E", 2, 10), dyndb.Insert("E", 3, 12),
		dyndb.Insert("T", 10), dyndb.Insert("T", 11),
	)
	res := Evaluate(q, db)
	want := [][]Value{{1}, {2}}
	got := res.Tuples()
	if len(got) != len(want) {
		t.Fatalf("result = %v, want %v", got, want)
	}
	for i := range want {
		if got[i][0] != want[i][0] {
			t.Errorf("result = %v, want %v", got, want)
		}
	}
}

func TestEvaluateSelfJoin(t *testing.T) {
	// ϕ1(x,y) = Exx ∧ Exy ∧ Eyy.
	q := cq.MustParse("Q(x,y) :- E(x,x), E(x,y), E(y,y)")
	db := mkdb(t,
		dyndb.Insert("E", 1, 1), dyndb.Insert("E", 2, 2),
		dyndb.Insert("E", 1, 2), dyndb.Insert("E", 2, 3),
	)
	res := Evaluate(q, db)
	// (1,1), (2,2) via loops; (1,2) via 1→2 with both loops.
	if res.Len() != 3 || !res.Has([]Value{1, 2}) || !res.Has([]Value{1, 1}) || !res.Has([]Value{2, 2}) {
		t.Errorf("result = %v", res.Tuples())
	}
}

func TestEvaluateRepeatedVarsInAtom(t *testing.T) {
	q := cq.MustParse("Q(x) :- R(x,x)")
	db := mkdb(t, dyndb.Insert("R", 1, 2), dyndb.Insert("R", 3, 3))
	res := Evaluate(q, db)
	if res.Len() != 1 || !res.Has([]Value{3}) {
		t.Errorf("result = %v", res.Tuples())
	}
}

func TestEvaluateBoolean(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), T(y)")
	db := mkdb(t, dyndb.Insert("E", 1, 2))
	if Answer(q, db) {
		t.Error("Answer true without T tuples")
	}
	res := Evaluate(q, db)
	if res.Len() != 0 {
		t.Errorf("Boolean no: result = %v", res.Tuples())
	}
	db.Insert("T", 2)
	if !Answer(q, db) {
		t.Error("Answer false after adding T(2)")
	}
	res = Evaluate(q, db)
	if res.Len() != 1 { // the empty tuple
		t.Errorf("Boolean yes: |result| = %d, want 1", res.Len())
	}
}

func TestEvaluateMissingRelation(t *testing.T) {
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	db := mkdb(t, dyndb.Insert("E", 1, 2)) // no T at all
	if got := Evaluate(q, db).Len(); got != 0 {
		t.Errorf("|result| = %d, want 0", got)
	}
}

func TestEvaluateCartesian(t *testing.T) {
	q := cq.MustParse("Q(x,u) :- S(x), U(u)")
	db := mkdb(t,
		dyndb.Insert("S", 1), dyndb.Insert("S", 2),
		dyndb.Insert("U", 7), dyndb.Insert("U", 8), dyndb.Insert("U", 9),
	)
	if got := Evaluate(q, db).Len(); got != 6 {
		t.Errorf("|S×U| = %d, want 6", got)
	}
}

func TestCountValuationsVsDistinct(t *testing.T) {
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	db := mkdb(t,
		dyndb.Insert("E", 1, 10), dyndb.Insert("E", 1, 11),
		dyndb.Insert("T", 10), dyndb.Insert("T", 11),
	)
	counts := countMap(CountValuations(q, db, nil))
	if len(counts) != 1 {
		t.Fatalf("distinct heads = %d, want 1", len(counts))
	}
	if c := counts[key(1)]; c != 2 {
		t.Errorf("multiplicity of (1) = %d, want 2", c)
	}
}

func TestCountValuationsPinned(t *testing.T) {
	// Pin the E atom to (1,10): only valuations through that tuple count.
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	db := mkdb(t,
		dyndb.Insert("E", 1, 10), dyndb.Insert("E", 1, 11), dyndb.Insert("E", 2, 10),
		dyndb.Insert("T", 10), dyndb.Insert("T", 11),
	)
	counts := countMap(CountValuations(q, db, Pinned{0: []Value{1, 10}}))
	if len(counts) != 1 || counts[key(1)] != 1 {
		t.Errorf("pinned counts = %v", counts)
	}
	// Pin to a tuple violating a repeated-variable pattern.
	q2 := cq.MustParse("Q(x) :- R(x,x)")
	db2 := mkdb(t, dyndb.Insert("R", 3, 3))
	counts = countMap(CountValuations(q2, db2, Pinned{0: []Value{1, 2}}))
	if len(counts) != 0 {
		t.Errorf("inconsistent pin matched: %v", counts)
	}
}

func TestPinnedTupleNeedNotBeInRelation(t *testing.T) {
	// IVM computes deletion deltas by pinning atoms to the tuple being
	// deleted, which may already be gone from the relation.
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	db := mkdb(t, dyndb.Insert("T", 10))
	counts := countMap(CountValuations(q, db, Pinned{0: []Value{5, 10}}))
	if len(counts) != 1 || counts[key(5)] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// TestAgainstBruteForce cross-checks the planner/index machinery against a
// direct nested-loop evaluation on random databases and a mix of query
// shapes, including self-joins and quantifiers.
func TestAgainstBruteForce(t *testing.T) {
	queries := []*cq.Query{
		cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)"),
		cq.MustParse("Q(x) :- E(x,y), T(y)"),
		cq.MustParse("Q(x,y) :- E(x,x), E(x,y), E(y,y)"),
		cq.MustParse("Q() :- E(x,y), E(y,z)"),
		cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"),
		cq.MustParse("Q(x,y,z) :- R(x,y,z), E(x,y)"),
		cq.MustParse("Q(y) :- E(x,y), T(y)"),
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		db := dyndb.New()
		nv := int64(1 + rng.Intn(6))
		for i := 0; i < 25; i++ {
			switch rng.Intn(4) {
			case 0:
				db.Insert("S", rng.Int63n(nv))
			case 1:
				db.Insert("T", rng.Int63n(nv))
			case 2:
				db.Insert("E", rng.Int63n(nv), rng.Int63n(nv))
			case 3:
				db.Insert("R", rng.Int63n(nv), rng.Int63n(nv), rng.Int63n(nv))
			}
		}
		for _, q := range queries {
			got := Evaluate(q, db)
			want := bruteForce(q, db)
			if got.Len() != len(want) {
				t.Fatalf("trial %d, %s: |got| = %d, |want| = %d", trial, q, got.Len(), len(want))
			}
			for _, tup := range want {
				if !got.Has(tup) {
					t.Fatalf("trial %d, %s: missing %v", trial, q, tup)
				}
			}
		}
	}
}

// TestEvaluateAcrossStoreMutations: the evaluator probes the indexes the
// store maintains, so one database evaluated, mutated through single
// commands, net deltas on the parallel path and Clear, and evaluated again
// agrees with brute force after every step.
func TestEvaluateAcrossStoreMutations(t *testing.T) {
	queries := []*cq.Query{
		cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)"),
		cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"),
		cq.MustParse("Q(y) :- E(x,y), T(y)"),
	}
	rng := rand.New(rand.NewSource(9))
	random := func() dyndb.Update {
		v1, v2 := rng.Int63n(8), rng.Int63n(8)
		switch rng.Intn(8) {
		case 0:
			return dyndb.Insert("S", v1)
		case 1:
			return dyndb.Delete("S", v1)
		case 2:
			return dyndb.Insert("T", v1)
		case 3:
			return dyndb.Delete("T", v1)
		case 4, 5:
			return dyndb.Delete("E", v1, v2)
		default:
			return dyndb.Insert("E", v1, v2)
		}
	}
	db := dyndb.NewSharded(4)
	for step := 0; step < 80; step++ {
		switch r := rng.Intn(12); {
		case r == 0:
			db.Clear()
		case r < 5:
			batch := make([]dyndb.Update, 96)
			for i := range batch {
				batch[i] = random()
			}
			delta, err := db.NetDelta(batch)
			if err != nil {
				t.Fatal(err)
			}
			db.ApplyNetDelta(delta, 2)
		default:
			if _, err := db.Apply(random()); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			got, want := Evaluate(q, db), bruteForce(q, db)
			if got.Len() != len(want) {
				t.Fatalf("step %d, %s: |got| = %d, |want| = %d", step, q, got.Len(), len(want))
			}
			for _, tup := range want {
				if !got.Has(tup) {
					t.Fatalf("step %d, %s: missing %v", step, q, tup)
				}
			}
		}
		if err := db.CheckIndexes(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// bruteForce evaluates by enumerating all assignments over the active
// domain — exponential, only for tiny test databases.
func bruteForce(q *cq.Query, db *dyndb.Database) map[string][]Value {
	vars := q.Vars()
	adom := db.ActiveDomain()
	out := map[string][]Value{}
	assign := map[string]Value{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			for _, a := range q.Atoms {
				t := make([]Value, len(a.Args))
				for j, v := range a.Args {
					t[j] = assign[v]
				}
				if !db.Has(a.Rel, t...) {
					return
				}
			}
			head := make([]Value, len(q.Head))
			for j, h := range q.Head {
				head[j] = assign[h]
			}
			out[fmt.Sprint(head)] = head
			return
		}
		for _, v := range adom {
			assign[vars[i]] = v
			rec(i + 1)
		}
	}
	if len(adom) > 0 {
		rec(0)
	}
	return out
}

func TestCountValuationsRestricted(t *testing.T) {
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	db := mkdb(t,
		dyndb.Insert("E", 1, 10), dyndb.Insert("E", 1, 11),
		dyndb.Insert("E", 2, 10), dyndb.Insert("E", 3, 12),
		dyndb.Insert("T", 10), dyndb.Insert("T", 11), dyndb.Insert("T", 12),
	)
	// Each valuation matches the restricted atom to exactly one tuple, so
	// restricting to a set must equal the sum of pinning to each element.
	set := [][]Value{{1, 10}, {2, 10}, {3, 12}}
	got := countMap(CountValuationsRestricted(q, db, nil, Restricted{0: set}))
	want := map[string]int64{}
	for _, tup := range set {
		for k, c := range countMap(CountValuations(q, db, Pinned{0: tup})) {
			want[k] += c
		}
	}
	if len(got) != len(want) {
		t.Fatalf("restricted gave %d head tuples, pinned sum %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Errorf("head %v: restricted %d, pinned sum %d", k, got[k], c)
		}
	}
	// Restricting to the full relation is the unrestricted count.
	full := db.Relation("E").Tuples()
	gotFull := countMap(CountValuationsRestricted(q, db, nil, Restricted{0: full}))
	wantFull := countMap(CountValuations(q, db, nil))
	if len(gotFull) != len(wantFull) {
		t.Fatalf("full restriction gave %d head tuples, unrestricted %d", len(gotFull), len(wantFull))
	}
	for k, c := range wantFull {
		if gotFull[k] != c {
			t.Errorf("head %v: full restriction %d, unrestricted %d", k, gotFull[k], c)
		}
	}
}

func TestRestrictedSkipsWrongArity(t *testing.T) {
	q := cq.MustParse("Q(x) :- E(x,y)")
	db := mkdb(t, dyndb.Insert("E", 1, 2))
	got := countMap(CountValuationsRestricted(q, db, nil, Restricted{0: {{1}, {1, 2}, {1, 2, 3}}}))
	if len(got) != 1 || got[key(1)] != 1 {
		t.Errorf("restricted with mixed arities = %v, want exactly E(1,2)", got)
	}
}

func TestRestrictedSelfJoin(t *testing.T) {
	// Both occurrences of E restricted: only valuations drawing both atoms
	// from the delta set survive — the N_S terms of the batched delta rule.
	q := cq.MustParse("Q(x,z) :- E(x,y), E(y,z)")
	db := mkdb(t,
		dyndb.Insert("E", 1, 2), dyndb.Insert("E", 2, 3), dyndb.Insert("E", 3, 4),
	)
	delta := [][]Value{{1, 2}, {2, 3}}
	got := countMap(CountValuationsRestricted(q, db, nil, Restricted{0: delta, 1: delta}))
	if len(got) != 1 || got[key(1, 3)] != 1 {
		t.Errorf("double restriction = %v, want exactly (1,3)", got)
	}
}

// key is the map key the count tests file a head tuple under.
func key(vals ...Value) string { return fmt.Sprint(vals) }

// countMap copies a count table into a Go map keyed by key, so the tests
// can compare, range and print it.
func countMap(counts *tuplekey.Table[int64]) map[string]int64 {
	out := make(map[string]int64, counts.Len())
	counts.Range(func(head []Value, c int64) bool {
		out[key(head...)] = c
		return true
	})
	return out
}
