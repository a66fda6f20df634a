package dyndb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomStream builds a mixed insert/delete stream over a small schema,
// biased toward values that collide so deletes actually hit.
func randomStream(rng *rand.Rand, n int) []Update {
	var out []Update
	for i := 0; i < n; i++ {
		v1, v2 := int64(rng.Intn(20)), int64(rng.Intn(20))
		switch rng.Intn(4) {
		case 0:
			out = append(out, Insert("E", v1, v2))
		case 1:
			out = append(out, Delete("E", v1, v2))
		case 2:
			out = append(out, Insert("T", v1))
		default:
			out = append(out, Delete("T", v1))
		}
	}
	return out
}

// equalContent compares two databases' observable state exactly.
func equalContent(t *testing.T, a, b *Database) {
	t.Helper()
	if a.Cardinality() != b.Cardinality() {
		t.Fatalf("|D| %d vs %d", a.Cardinality(), b.Cardinality())
	}
	if !reflect.DeepEqual(a.Relations(), b.Relations()) {
		t.Fatalf("relations diverge: %v vs %v", a.Relations(), b.Relations())
	}
	if !reflect.DeepEqual(a.Updates(), b.Updates()) {
		t.Fatal("stored tuples diverge")
	}
}

// changedTuples counts the tuples stored in exactly one of a and b.
func changedTuples(a, b *Database) int {
	n := 0
	for _, u := range a.Updates() {
		if !b.Has(u.Rel, u.Tuple...) {
			n++
		}
	}
	for _, u := range b.Updates() {
		if !a.Has(u.Rel, u.Tuple...) {
			n++
		}
	}
	return n
}

// checkCounters recounts |D| from the stored tuples and requires the
// database's maintained cardinality to agree.
func checkCounters(t *testing.T, d *Database) {
	t.Helper()
	card := 0
	for _, rel := range d.Relations() {
		card += len(d.Relation(rel).Tuples())
	}
	if d.Cardinality() != card {
		t.Fatalf("|D| = %d, the tuples count %d", d.Cardinality(), card)
	}
}

// TestApplyNetDeltaMatchesApplyAll: applying a batch's net delta reaches
// exactly the tuples that ApplyAll of the raw batch reaches, with a
// cardinality that agrees with a recount of the stored tuples, and one
// mutation per tuple whose presence the batch changed (the raw batch
// also counts the mutations coalescing cancels). Every batch ends by
// deleting each tuple that could hold one value, most of them absent, so
// NetDelta drops a run of no-op deletes in every trial.
func TestApplyNetDeltaMatchesApplyAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		init := randomStream(rng, 400)
		batch := randomStream(rng, 600)
		gone := Value(trial)
		batch = append(batch, Delete("T", gone))
		for v := Value(0); v < 20; v++ {
			batch = append(batch, Delete("E", gone, v), Delete("E", v, gone))
		}
		pre, raw, net := New(), New(), New()
		for _, d := range []*Database{pre, raw, net} {
			if err := d.ApplyAll(init); err != nil {
				t.Fatal(err)
			}
		}
		if err := raw.ApplyAll(batch); err != nil {
			t.Fatal(err)
		}
		delta, err := net.NetDelta(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n := net.ApplyNetDelta(delta, 0); n != len(delta) {
			t.Fatalf("applied %d of %d", n, len(delta))
		}
		equalContent(t, net, raw)
		checkCounters(t, net)
		if got, want := net.Mutations()-pre.Mutations(), changedTuples(pre, raw); got != uint64(want) {
			t.Fatalf("the net delta made %d mutations, the batch changed %d tuples", got, want)
		}
	}
}

// TestApplyNetDeltaIgnoresWorkers: the worker count callers still pass
// changes nothing — every count reaches the tuples, cardinality, mutation
// count and built indexes of workers=0.
func TestApplyNetDeltaIgnoresWorkers(t *testing.T) {
	masks := []indexKey{{"E", 0b01}, {"E", 0b10}, {"T", 0b1}}
	rng := rand.New(rand.NewSource(13))
	init, batch := randomStream(rng, 400), randomStream(rng, 600)
	apply := func(t *testing.T, workers int) *Database {
		t.Helper()
		db := New()
		if err := db.ApplyAll(init); err != nil {
			t.Fatal(err)
		}
		for _, k := range masks {
			db.Index(k.rel, k.mask)
		}
		delta, err := db.NetDelta(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n := db.ApplyNetDelta(delta, workers); n != len(delta) {
			t.Fatalf("applied %d of %d", n, len(delta))
		}
		checkIndexesFresh(t, db, fmt.Sprintf("workers=%d", workers))
		return db
	}
	ref := apply(t, 0)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := apply(t, workers)
			equalContent(t, db, ref)
			if db.Mutations() != ref.Mutations() {
				t.Fatalf("mutations %d vs %d", db.Mutations(), ref.Mutations())
			}
			for _, k := range masks {
				if !reflect.DeepEqual(dumpIndex(db.Index(k.rel, k.mask)), dumpIndex(ref.Index(k.rel, k.mask))) {
					t.Fatalf("index (%s,%b) diverges from workers=0", k.rel, k.mask)
				}
			}
		})
	}
}

// TestApplyNetDeltaEmpty: an empty delta applies nothing and counts no
// mutation.
func TestApplyNetDeltaEmpty(t *testing.T) {
	db := New()
	if err := db.ApplyAll([]Update{Insert("E", 1, 2), Insert("T", 2)}); err != nil {
		t.Fatal(err)
	}
	db.Index("E", 0b01)
	before, muts := db.Clone(), db.Mutations()
	for _, delta := range [][]Update{nil, {}} {
		if n := db.ApplyNetDelta(delta, 0); n != 0 {
			t.Fatalf("an empty delta applied %d commands", n)
		}
	}
	equalContent(t, db, before)
	if db.Mutations() != muts {
		t.Fatalf("mutations %d after empty deltas, want %d", db.Mutations(), muts)
	}
	checkIndexesFresh(t, db, "after empty deltas")
}

// TestApplyNetDeltaEmptiesRelation: a delta deleting every tuple of a
// relation keeps the relation declared, counts only the tuples left in
// other relations, and leaves no bucket in its indexes.
func TestApplyNetDeltaEmptiesRelation(t *testing.T) {
	db := New()
	var load, drain []Update
	for i := Value(0); i < 30; i++ {
		load = append(load, Insert("E", i%5, 100+i))
		drain = append(drain, Delete("E", i%5, 100+i))
	}
	load = append(load, Insert("T", 1))
	if err := db.ApplyAll(load); err != nil {
		t.Fatal(err)
	}
	byX := db.Index("E", 0b01)
	delta, err := db.NetDelta(drain)
	if err != nil {
		t.Fatal(err)
	}
	if n := db.ApplyNetDelta(delta, 0); n != 30 {
		t.Fatalf("applied %d of 30 deletes", n)
	}
	if r := db.Relation("E"); r == nil || r.Arity() != 2 || r.Len() != 0 {
		t.Fatal("E is not declared and empty after its last tuple left")
	}
	if db.Cardinality() != 1 {
		t.Fatalf("|D| = %d, want 1 (T(1))", db.Cardinality())
	}
	for x := Value(0); x < 5; x++ {
		if byX.Bucket([]Value{x}).Len() != 0 {
			t.Fatalf("bucket x=%d survives the relation's last tuple", x)
		}
	}
	checkCounters(t, db)
	checkIndexesFresh(t, db, "after emptying E")
}

// TestApplyNetDeltaFreshRelations: a delta that declares new relations
// mid-batch declares them.
func TestApplyNetDeltaFreshRelations(t *testing.T) {
	db := New()
	var batch []Update
	for i := int64(0); i < 64; i++ {
		batch = append(batch, Insert("A", i), Insert("B", i, i+1))
	}
	delta, err := db.NetDelta(batch)
	if err != nil {
		t.Fatal(err)
	}
	db.ApplyNetDelta(delta, 0)
	if db.Cardinality() != 128 {
		t.Fatalf("|D| = %d, want 128", db.Cardinality())
	}
	if db.Relation("A") == nil || db.Relation("B") == nil {
		t.Fatal("fresh relations not declared")
	}
}

// TestApplyNetDeltaContractViolation: a delta that no-ops against the
// current state panics instead of silently corrupting the counters.
func TestApplyNetDeltaContractViolation(t *testing.T) {
	db := New()
	if _, err := db.Insert("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no-op command accepted as net delta")
		}
	}()
	db.ApplyNetDelta([]Update{Insert("E", 1, 2)}, 0)
}
