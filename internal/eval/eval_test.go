package eval

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
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
	// Restrict the E atom to {(1,10)}: only valuations through that tuple count.
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	db := mkdb(t,
		dyndb.Insert("E", 1, 10), dyndb.Insert("E", 1, 11), dyndb.Insert("E", 2, 10),
		dyndb.Insert("T", 10), dyndb.Insert("T", 11),
	)
	counts := countMap(CountValuations(q, db, Restricted{0: {{1, 10}}}))
	if len(counts) != 1 || counts[key(1)] != 1 {
		t.Errorf("pinned counts = %v", counts)
	}
	// Restrict to a tuple violating a repeated-variable pattern.
	q2 := cq.MustParse("Q(x) :- R(x,x)")
	db2 := mkdb(t, dyndb.Insert("R", 3, 3))
	counts = countMap(CountValuations(q2, db2, Restricted{0: {{1, 2}}}))
	if len(counts) != 0 {
		t.Errorf("inconsistent pin matched: %v", counts)
	}
}

func TestPinnedTupleNeedNotBeInRelation(t *testing.T) {
	// IVM computes deletion deltas by restricting atoms to the tuples being
	// deleted, which may already be gone from the relation.
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	db := mkdb(t, dyndb.Insert("T", 10))
	counts := countMap(CountValuations(q, db, Restricted{0: {{5, 10}}}))
	if len(counts) != 1 || counts[key(5)] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// TestAgainstBruteForce cross-checks the planned join against a direct
// nested-loop evaluation on random databases and a mix of query shapes,
// including self-joins and quantifiers: Evaluate and CountValuations
// unrestricted, and CountValuations with random restriction sets on one
// or two atoms. The shapes are chosen so that the plans cover every
// access kind with a variable repeated inside the atom at that depth —
// R(x,y,y) reached after x is bound, and the like — and the empty join an
// undeclared relation makes, and the test fails if one of them never
// came up that way.
func TestAgainstBruteForce(t *testing.T) {
	queries := []*cq.Query{
		cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)"),
		cq.MustParse("Q(x) :- E(x,y), T(y)"),
		cq.MustParse("Q(x,y) :- E(x,x), E(x,y), E(y,y)"),
		cq.MustParse("Q() :- E(x,y), E(y,z)"),
		cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"),
		cq.MustParse("Q(x,y,z) :- R(x,y,z), E(x,y)"),
		cq.MustParse("Q(y) :- E(x,y), T(y)"),
		cq.MustParse("Q(v0,v1) :- R(v1,v0,v0)"),
		cq.MustParse("Q(x,y) :- S(x), R(x,y,y)"),   // bucket on x, y repeated outside the mask
		cq.MustParse("Q(x,y) :- E(x,y), R(x,y,y)"), // filter probing (x,y,y), or a scan of R
		cq.MustParse("Q(x,y) :- S(x), E(y,y)"),     // Cartesian: a scan with a repeat
		cq.MustParse("Q(x,y) :- E(x,y), U(x,y,y)"), // U is never declared
	}
	cov := map[string]bool{}
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
		for qi, q := range queries {
			ctx := fmt.Sprintf("trial %d", trial)
			planCoverage(cov, checkAgainstBrute(t, ctx, q, db, nil), db)
			restricted := randomRestriction(rng, q, nv+1)
			planCoverage(cov, checkAgainstBrute(t, fmt.Sprintf("%s, query %d restricted to %v", ctx, qi, restricted), q, db, restricted), db)
		}
	}
	for _, kind := range []string{"restricted", "filter", "bucket", "scan", "undeclared"} {
		if !cov[kind] {
			t.Errorf("no plan had a %s atom that repeats a variable", kind)
		}
	}
}

// randomRestriction restricts one or two of q's atoms to up to four
// distinct random tuples each over values below nv, now and then one of
// the wrong arity.
func randomRestriction(rng *rand.Rand, q *cq.Query, nv int64) Restricted {
	out := Restricted{}
	for range 1 + rng.Intn(2) {
		i := rng.Intn(len(q.Atoms))
		seen := map[string]bool{}
		var set [][]Value
		for range rng.Intn(5) {
			arity := len(q.Atoms[i].Args)
			if rng.Intn(8) == 0 {
				arity++
			}
			tup := make([]Value, arity)
			for j := range tup {
				tup[j] = rng.Int63n(nv)
			}
			if k := key(tup...); !seen[k] {
				seen[k] = true
				set = append(set, tup)
			}
		}
		out[i] = set
	}
	return out
}

// planCoverage records in cov the access kinds of the depths of ev's last
// plan whose atom repeats a variable, or "undeclared" if the plan found
// the join empty for an undeclared relation that repeats one. Every
// position of an atom lands in exactly one of a frame's probe variables,
// binds or checks — except that a restricted depth also checks the
// variables it probes — so a variable counted twice there is a repeat.
func planCoverage(cov map[string]bool, ev *Evaluator, db *dyndb.Database) {
	if !ev.plan(db) {
		for _, a := range ev.atoms {
			if !a.restrictSet && a.stored == nil && len(slices.Compact(slices.Sorted(slices.Values(a.args)))) < len(a.args) {
				cov["undeclared"] = true
			}
		}
		return
	}
	names := [...]string{accessRestricted: "restricted", accessFilter: "filter", accessBucket: "bucket", accessScan: "scan"}
	for _, f := range ev.frames {
		vars := map[int]int{}
		if f.kind != accessRestricted {
			for _, v := range f.probeVars {
				vars[v]++
			}
		}
		for _, s := range append(slices.Clone(f.binds), f.checks...) {
			vars[s.v]++
		}
		for _, n := range vars {
			if n > 1 {
				cov[names[f.kind]] = true
			}
		}
	}
}

// checkAgainstBrute compares CountValuations — and, unrestricted, Evaluate
// — with bruteForce on q over db, and returns the evaluator that counted,
// its last run's relations and restrictions still in place.
func checkAgainstBrute(t *testing.T, ctx string, q *cq.Query, db *dyndb.Database, restricted Restricted) *Evaluator {
	t.Helper()
	want := bruteForce(q, db, restricted)
	ev := NewEvaluator(q)
	counts := tuplekey.NewTable[int64](len(q.Head))
	ev.CountInto(counts, db, restricted)
	if got := countMap(counts); !maps.Equal(got, want) {
		t.Fatalf("%s, %s: valuation counts %v, brute force %v", ctx, q, got, want)
	}
	if restricted == nil {
		got := Evaluate(q, db)
		if got.Len() != len(want) {
			t.Fatalf("%s, %s: |Evaluate| = %d, brute force %d", ctx, q, got.Len(), len(want))
		}
		for _, tup := range got.Tuples() {
			if want[key(tup...)] == 0 {
				t.Fatalf("%s, %s: Evaluate has %v, brute force not", ctx, q, tup)
			}
		}
	}
	return ev
}

// TestEvaluateAcrossStoreMutations: the evaluator probes the indexes the
// store maintains, so one database evaluated, mutated through single
// commands, net deltas and Clear, and evaluated again
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
	db := dyndb.New()
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
			db.ApplyNetDelta(delta, 0)
		default:
			if _, err := db.Apply(random()); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			checkAgainstBrute(t, fmt.Sprintf("step %d", step), q, db, nil)
		}
		if err := db.CheckIndexes(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// bruteForce counts, per head tuple (filed under key), the valuations
// satisfying the body by enumerating all assignments over every value that
// occurs in a stored or restricting tuple; a restricted atom must match a
// tuple of its set, the others the store. Exponential, only for tiny test
// databases.
func bruteForce(q *cq.Query, db *dyndb.Database, restricted Restricted) map[string]int64 {
	vars := q.Vars()
	dom := storedValues(db)
	for _, set := range restricted {
		for _, tup := range set {
			dom = append(dom, tup...)
		}
	}
	slices.Sort(dom)
	dom = slices.Compact(dom)
	out := map[string]int64{}
	assign := map[string]Value{}
	holds := func(i int, tup []Value) bool {
		set, ok := restricted[i]
		if !ok {
			return db.Has(q.Atoms[i].Rel, tup...)
		}
		return slices.ContainsFunc(set, func(s []Value) bool { return slices.Equal(s, tup) })
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			for ai, a := range q.Atoms {
				t := make([]Value, len(a.Args))
				for j, v := range a.Args {
					t[j] = assign[v]
				}
				if !holds(ai, t) {
					return
				}
			}
			head := make([]Value, len(q.Head))
			for j, h := range q.Head {
				head[j] = assign[h]
			}
			out[key(head...)]++
			return
		}
		for _, v := range dom {
			assign[vars[i]] = v
			rec(i + 1)
		}
	}
	if len(dom) > 0 {
		rec(0)
	}
	return out
}

// storedValues returns the distinct values of db's stored tuples, sorted:
// the candidate domain of bruteForce's assignments.
func storedValues(db *dyndb.Database) []Value {
	var out []Value
	for _, rel := range db.Relations() {
		db.Relation(rel).Each(func(t []Value) bool {
			out = append(out, t...)
			return true
		})
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func TestCountValuationsRestricted(t *testing.T) {
	q := cq.MustParse("Q(x) :- E(x,y), T(y)")
	db := mkdb(t,
		dyndb.Insert("E", 1, 10), dyndb.Insert("E", 1, 11),
		dyndb.Insert("E", 2, 10), dyndb.Insert("E", 3, 12),
		dyndb.Insert("T", 10), dyndb.Insert("T", 11), dyndb.Insert("T", 12),
	)
	// Each valuation matches the restricted atom to exactly one tuple, so
	// restricting to a set must equal the sum of restricting to each element
	// alone.
	set := [][]Value{{1, 10}, {2, 10}, {3, 12}}
	got := countMap(CountValuations(q, db, Restricted{0: set}))
	want := map[string]int64{}
	for _, tup := range set {
		for k, c := range countMap(CountValuations(q, db, Restricted{0: {tup}})) {
			want[k] += c
		}
	}
	if len(got) != len(want) {
		t.Fatalf("restricted gave %d head tuples, per-tuple sum %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Errorf("head %v: restricted %d, per-tuple sum %d", k, got[k], c)
		}
	}
	// Restricting to the full relation is the unrestricted count.
	full := db.Relation("E").Tuples()
	gotFull := countMap(CountValuations(q, db, Restricted{0: full}))
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
	got := countMap(CountValuations(q, db, Restricted{0: {{1}, {1, 2}, {1, 2, 3}}}))
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
	got := countMap(CountValuations(q, db, Restricted{0: delta, 1: delta}))
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
