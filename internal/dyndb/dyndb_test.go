package dyndb

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"dyncq/internal/tuplekey"
)

func TestInsertDeleteSetSemantics(t *testing.T) {
	d := New()
	ch, err := d.Insert("E", 1, 2)
	if err != nil || !ch {
		t.Fatalf("first insert: %v %v", ch, err)
	}
	ch, err = d.Insert("E", 1, 2)
	if err != nil || ch {
		t.Fatalf("duplicate insert changed the db: %v %v", ch, err)
	}
	if d.Cardinality() != 1 {
		t.Errorf("|D| = %d, want 1", d.Cardinality())
	}
	ch, err = d.Delete("E", 1, 2)
	if err != nil || !ch {
		t.Fatalf("delete: %v %v", ch, err)
	}
	ch, err = d.Delete("E", 1, 2)
	if err != nil || ch {
		t.Fatalf("double delete changed the db: %v %v", ch, err)
	}
	if d.Cardinality() != 0 {
		t.Errorf("|D| = %d, want 0", d.Cardinality())
	}
}

func TestArityEnforcement(t *testing.T) {
	d := New()
	if _, err := d.Insert("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert("E", 1); err == nil {
		t.Error("arity mismatch on insert not detected")
	}
	if _, err := d.Delete("E", 1); err == nil {
		t.Error("arity mismatch on delete not detected")
	}
	if err := d.EnsureRelation("E", 3); err == nil {
		t.Error("EnsureRelation with wrong arity succeeded")
	}
	if err := d.EnsureRelation("E", 2); err != nil {
		t.Errorf("EnsureRelation idempotent call failed: %v", err)
	}
	if err := d.EnsureRelation("Z", 0); err == nil {
		t.Error("zero arity accepted")
	}
}

func TestDeleteUndeclared(t *testing.T) {
	d := New()
	ch, err := d.Delete("Nope", 1)
	if err != nil || ch {
		t.Errorf("delete from undeclared relation: %v %v", ch, err)
	}
}

// TestActiveDomain checks that n = |adom(D)| is maintained exactly,
// including under repeated values within one tuple (the paper's updates
// "may change the database's active domain" in both directions).
func TestActiveDomain(t *testing.T) {
	d := New()
	d.Insert("E", 1, 1)
	if d.ActiveDomainSize() != 1 {
		t.Errorf("n = %d, want 1", d.ActiveDomainSize())
	}
	d.Insert("E", 1, 2)
	d.Insert("F", 2, 3)
	if d.ActiveDomainSize() != 3 {
		t.Errorf("n = %d, want 3", d.ActiveDomainSize())
	}
	d.Delete("E", 1, 2)
	// 1 survives via E(1,1); 2 survives via F(2,3).
	if d.ActiveDomainSize() != 3 {
		t.Errorf("n = %d, want 3 after delete", d.ActiveDomainSize())
	}
	d.Delete("E", 1, 1)
	if d.ActiveDomainSize() != 2 || d.InActiveDomain(1) {
		t.Errorf("n = %d, want 2; 1 in adom: %v", d.ActiveDomainSize(), d.InActiveDomain(1))
	}
	adom := d.ActiveDomain()
	if len(adom) != 2 || adom[0] != 2 || adom[1] != 3 {
		t.Errorf("ActiveDomain = %v", adom)
	}
}

func TestSizeFormula(t *testing.T) {
	d := New()
	d.Insert("E", 1, 2) // |σ|=1, adom {1,2}, 2·1 = 2 → ||D|| = 1+2+2 = 5
	if got := d.Size(); got != 5 {
		t.Errorf("||D|| = %d, want 5", got)
	}
	d.Insert("T", 3) // |σ|=2, adom {1,2,3}, 2+1 → ||D|| = 2+3+3 = 8
	if got := d.Size(); got != 8 {
		t.Errorf("||D|| = %d, want 8", got)
	}
}

func TestApplyAndUpdates(t *testing.T) {
	d := New()
	stream := []Update{
		Insert("E", 1, 2),
		Insert("E", 2, 3),
		Insert("T", 3),
		Delete("E", 1, 2),
	}
	if err := d.ApplyAll(stream); err != nil {
		t.Fatal(err)
	}
	if !d.Has("E", 2, 3) || d.Has("E", 1, 2) || !d.Has("T", 3) {
		t.Error("ApplyAll produced wrong state")
	}
	// Rebuild from Updates() and compare.
	d2 := New()
	if err := d2.ApplyAll(d.Updates()); err != nil {
		t.Fatal(err)
	}
	if d2.Cardinality() != d.Cardinality() || d2.Size() != d.Size() {
		t.Errorf("rebuild mismatch: |D|=%d vs %d", d2.Cardinality(), d.Cardinality())
	}
	if !d2.Has("E", 2, 3) || !d2.Has("T", 3) {
		t.Error("rebuild lost tuples")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := New()
	d.Insert("E", 1, 2)
	c := d.Clone()
	c.Insert("E", 5, 6)
	if d.Has("E", 5, 6) {
		t.Error("clone shares state with original")
	}
	if !c.Has("E", 1, 2) {
		t.Error("clone missing original tuple")
	}
}

func TestRelationAccessors(t *testing.T) {
	d := New()
	d.Insert("E", 3, 4)
	d.Insert("E", 1, 2)
	r := d.Relation("E")
	if r == nil || r.Arity() != 2 || r.Len() != 2 {
		t.Fatalf("Relation accessor broken: %+v", r)
	}
	ts := r.Tuples()
	if len(ts) != 2 || ts[0][0] != 1 || ts[1][0] != 3 {
		t.Errorf("Tuples not sorted: %v", ts)
	}
	count := 0
	r.Each(func([]Value) bool { count++; return true })
	if count != 2 {
		t.Errorf("Each visited %d", count)
	}
	if got := d.Relations(); len(got) != 1 || got[0] != "E" {
		t.Errorf("Relations = %v", got)
	}
}

// TestTuplesSurviveMutation: Tuples hands out copies. The relation keeps
// its tuples inline in a table that moves them when it grows and reuses
// their slots after deletes, so a result that aliased it would change
// under the caller.
func TestTuplesSurviveMutation(t *testing.T) {
	d := New()
	for i := 0; i < 6; i++ {
		d.Insert("E", Value(i), Value(10*i))
	}
	got := d.Relation("E").Tuples()
	for i := 0; i < 6; i++ {
		d.Delete("E", Value(i), Value(10*i))
	}
	for i := 100; i < 400; i++ { // reuse the freed slots, then grow through several rehashes
		d.Insert("E", Value(i), Value(i))
	}
	if len(got) != 6 {
		t.Fatalf("Tuples returned %d tuples, want 6", len(got))
	}
	for i, tup := range got {
		if len(tup) != 2 || tup[0] != Value(i) || tup[1] != Value(10*i) {
			t.Fatalf("tuple %d reads %v after later store mutations, want [%d %d]", i, tup, i, 10*i)
		}
	}
	got[0] = append(got[0], 99) // a caller's append must not reach a neighbour
	if got[1][0] != 1 {
		t.Fatalf("appending to one returned tuple overwrote the next: %v", got[1])
	}
}

// TestRandomStreamInvariants runs a random update stream and checks the
// maintained statistics against recomputation from scratch.
func TestRandomStreamInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := New()
	type key struct{ a, b Value }
	model := map[key]bool{}
	for step := 0; step < 20000; step++ {
		a, b := Value(rng.Intn(30)), Value(rng.Intn(30))
		if rng.Intn(2) == 0 {
			ch, err := d.Insert("E", a, b)
			if err != nil {
				t.Fatal(err)
			}
			if ch == model[key{a, b}] {
				t.Fatalf("step %d: insert changed=%v but model present=%v", step, ch, model[key{a, b}])
			}
			model[key{a, b}] = true
		} else {
			ch, err := d.Delete("E", a, b)
			if err != nil {
				t.Fatal(err)
			}
			if ch != model[key{a, b}] {
				t.Fatalf("step %d: delete changed=%v but model present=%v", step, ch, model[key{a, b}])
			}
			delete(model, key{a, b})
		}
		if d.Cardinality() != len(model) {
			t.Fatalf("step %d: |D| = %d, model %d", step, d.Cardinality(), len(model))
		}
	}
	// Recompute adom from the model.
	adom := map[Value]bool{}
	for k := range model {
		adom[k.a] = true
		adom[k.b] = true
	}
	if d.ActiveDomainSize() != len(adom) {
		t.Errorf("n = %d, recomputed %d", d.ActiveDomainSize(), len(adom))
	}
}

func TestUpdateString(t *testing.T) {
	u := Insert("E", 1, 2)
	if u.String() != "insert E[1 2]" {
		t.Errorf("String() = %q", u.String())
	}
	u = Delete("T", 7)
	if u.String() != "delete T[7]" {
		t.Errorf("String() = %q", u.String())
	}
}

func TestCoalesce(t *testing.T) {
	in := []Update{
		Insert("E", 1, 2),
		Insert("T", 5),
		Delete("E", 1, 2), // cancels nothing at db level but supersedes the insert
		Insert("E", 3, 4),
		Insert("E", 1, 2), // last op on E(1,2) wins again
		Delete("T", 5),
	}
	got := Coalesce(in)
	want := []Update{
		Insert("E", 1, 2), // slot of first appearance, final op = insert
		Delete("T", 5),
		Insert("E", 3, 4),
	}
	if len(got) != len(want) {
		t.Fatalf("Coalesce gave %d updates, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Errorf("coalesced[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The input must be untouched.
	if in[0].String() != "insert E[1 2]" {
		t.Errorf("input mutated: %v", in[0])
	}
}

func TestCoalesceDistinguishesRelations(t *testing.T) {
	// Same tuple in different relations must not merge; relation names that
	// could collide under naive concatenation must stay distinct.
	got := Coalesce([]Update{
		Insert("E", 1),
		Insert("F", 1),
		Delete("E", 1),
	})
	if len(got) != 2 {
		t.Fatalf("Coalesce merged across relations: %v", got)
	}
	if got[0].Op != OpDelete || got[0].Rel != "E" || got[1].Op != OpInsert || got[1].Rel != "F" {
		t.Errorf("coalesced = %v", got)
	}
}

func TestCoalescedApply(t *testing.T) {
	d := New()
	if err := d.ApplyAll(Coalesce([]Update{
		Insert("E", 1, 2),
		Insert("E", 1, 2), // duplicate coalesces away
		Insert("T", 7),
		Delete("T", 7), // cancels the insert
		Insert("E", 3, 4),
	})); err != nil {
		t.Fatal(err)
	}
	if d.Cardinality() != 2 || !d.Has("E", 1, 2) || !d.Has("E", 3, 4) || d.Has("T", 7) {
		t.Errorf("unexpected state: |D|=%d", d.Cardinality())
	}
}

// TestPartition: shards preserve per-shard order, keep all commands on a
// tuple together, and commute — applying the shards in any order matches
// applying the original batch directly.
func TestPartition(t *testing.T) {
	batch := Coalesce([]Update{
		Insert("E", 1, 2), Insert("E", 3, 4), Insert("T", 2),
		Delete("E", 1, 2), Insert("T", 4), Insert("E", 5, 6),
		Insert("F", 1), Delete("T", 4),
	})
	shards := Partition(batch, 4)
	if len(shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	if total != len(batch) {
		t.Fatalf("partition holds %d commands, batch has %d", total, len(batch))
	}
	// Same-tuple commands land in the same shard (batch pre-coalesced here,
	// so check with a raw batch instead).
	raw := []Update{Insert("E", 1, 2), Insert("T", 7), Delete("E", 1, 2)}
	for _, s := range Partition(raw, 8) {
		seenE := -1
		for i, u := range s {
			if u.Rel == "E" {
				if seenE >= 0 && u.Op != OpDelete {
					t.Error("E commands out of order within a shard")
				}
				seenE = i
			}
		}
	}
	// Commutativity: shards applied in reverse shard order reach the same
	// database as the batch applied directly.
	direct := New()
	if err := direct.ApplyAll(batch); err != nil {
		t.Fatal(err)
	}
	viaShards := New()
	for i := len(shards) - 1; i >= 0; i-- {
		if err := viaShards.ApplyAll(shards[i]); err != nil {
			t.Fatal(err)
		}
	}
	if direct.Cardinality() != viaShards.Cardinality() {
		t.Fatalf("|D| diverges: direct %d, via shards %d", direct.Cardinality(), viaShards.Cardinality())
	}
	for _, name := range direct.Relations() {
		direct.Relation(name).Each(func(tu []Value) bool {
			if !viaShards.Has(name, tu...) {
				t.Errorf("%s%v missing after sharded apply", name, tu)
			}
			return true
		})
	}
	// shards < 2: one shard, input copied.
	one := Partition(raw, 1)
	if len(one) != 1 || len(one[0]) != len(raw) {
		t.Fatalf("Partition(_, 1) = %d shards of %d commands", len(one), len(one[0]))
	}
}

func TestNetDelta(t *testing.T) {
	db := New()
	for _, u := range []Update{Insert("E", 1, 2), Insert("T", 2)} {
		if _, err := db.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	// Coalescing: insert+delete on one tuple cancels to the last command;
	// no-ops against the store are dropped; deletes from undeclared
	// relations are dropped.
	net, err := db.NetDelta([]Update{
		Insert("E", 3, 4), // survives (new tuple)
		Delete("E", 3, 4), // coalesces over the insert, then no-ops (absent pre-state)
		Insert("E", 1, 2), // no-op: already present
		Delete("T", 2),    // survives
		Delete("X", 7),    // undeclared relation: no-op
		Insert("F", 1),    // survives, declares F within the batch
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Update{Delete("T", 2), Insert("F", 1)}
	if len(net) != len(want) {
		t.Fatalf("net delta %v, want %v", net, want)
	}
	for i := range want {
		if net[i].Op != want[i].Op || net[i].Rel != want[i].Rel {
			t.Fatalf("net delta %v, want %v", net, want)
		}
	}
	// The store was not modified.
	if !db.Has("E", 1, 2) || !db.Has("T", 2) || db.Cardinality() != 2 {
		t.Fatal("NetDelta modified the database")
	}

	// Arity validation: against declared relations…
	if _, err := db.NetDelta([]Update{Insert("E", 1)}); err == nil {
		t.Fatal("arity clash against a declared relation accepted")
	}
	if _, err := db.NetDelta([]Update{Delete("E", 1)}); err == nil {
		t.Fatal("delete arity clash against a declared relation accepted")
	}
	// …and within the batch for relations the batch itself declares.
	// Coalescing runs first and files the two arities in separate slot
	// tables, so the clash reaches validation instead of a panic.
	if _, err := db.NetDelta([]Update{Insert("G", 1), Insert("G", 1, 2)}); err == nil || !strings.Contains(err.Error(), "earlier in the batch") {
		t.Fatalf("intra-batch arity clash: err = %v, want the earlier-in-the-batch error", err)
	}
	// The coalescing scratch is emptied after every call, rejected ones
	// included: the next batch nets on its own.
	net, err = db.NetDelta([]Update{Insert("G", 1), Delete("T", 2), Insert("E", 3, 4)})
	if err != nil || len(net) != 3 {
		t.Fatalf("batch after a rejected one nets to %v (err %v), want all three commands", net, err)
	}
}

func TestMutationsAndClear(t *testing.T) {
	db := New()
	if db.Mutations() != 0 {
		t.Fatalf("fresh store has %d mutations", db.Mutations())
	}
	if _, err := db.Insert("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("E", 1, 2); err != nil { // set-semantics no-op
		t.Fatal(err)
	}
	if _, err := db.Delete("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := db.Mutations(); got != 2 {
		t.Fatalf("mutations = %d, want 2 (no-ops do not count)", got)
	}
	if _, err := db.Insert("E", 3, 4); err != nil {
		t.Fatal(err)
	}
	db.Clear()
	if db.Cardinality() != 0 || db.ActiveDomainSize() != 0 || len(db.Relations()) != 0 {
		t.Fatal("Clear left state behind")
	}
	if got := db.Mutations(); got != 3 {
		t.Fatalf("mutations = %d after Clear, want 3 (lifetime counter survives)", got)
	}
	// Clear keeps the pointer usable and forgets declarations: E can be
	// redeclared with a different arity.
	if _, err := db.Insert("E", 1); err != nil {
		t.Fatalf("unary E after Clear: %v", err)
	}
}

func TestCopyFrom(t *testing.T) {
	src := New()
	if err := src.EnsureRelation("EMPTY", 3); err != nil {
		t.Fatal(err)
	}
	for _, u := range []Update{Insert("E", 1, 2), Insert("T", 2)} {
		if _, err := src.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	dst := New()
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if dst.Cardinality() != 2 || !dst.Has("E", 1, 2) || !dst.Has("T", 2) {
		t.Fatal("CopyFrom missed tuples")
	}
	if dst.Relation("EMPTY") == nil || dst.Relation("EMPTY").Arity() != 3 {
		t.Fatal("CopyFrom dropped the empty relation's declaration")
	}
	// Arity clash with an existing declaration fails.
	bad := New()
	if _, err := bad.Insert("E", 1); err != nil {
		t.Fatal(err)
	}
	if err := bad.CopyFrom(src); err == nil {
		t.Fatal("CopyFrom over a conflicting declaration accepted")
	}
}

func TestIndexBuckets(t *testing.T) {
	db := New()
	for _, tu := range [][]Value{{1, 2}, {1, 3}, {2, 9}, {3, 9}} {
		if _, err := db.Insert("E", tu...); err != nil {
			t.Fatal(err)
		}
	}
	first, second := db.Index("E", 0b01), db.Index("E", 0b10)
	if got := first.Bucket([]Value{1}).Len(); got != 2 {
		t.Fatalf("bucket(1,·) has %d tuples, want 2", got)
	}
	if got := second.Bucket([]Value{9}).Len(); got != 2 {
		t.Fatalf("bucket(·,9) has %d tuples, want 2", got)
	}
	if db.Index("E", 0b01) != first {
		t.Fatal("a second Index call rebuilt the index")
	}
	if _, err := db.Insert("E", 1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	if b := first.Bucket([]Value{1}); b.Len() != 2 || !b.Has([]Value{1, 4}) || b.Has([]Value{1, 2}) {
		t.Fatal("bucket(1,·) not maintained by Insert/Delete")
	}
	if first.Bucket([]Value{7}) != nil {
		t.Fatal("a projection with no tuples has a bucket")
	}
	if err := db.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckIndexesSeesCorruption: each way an index can disagree with its
// relation is reported.
func TestCheckIndexesSeesCorruption(t *testing.T) {
	build := func() (*Database, *Index) {
		db := New()
		for _, tu := range [][]Value{{1, 2}, {1, 3}, {2, 9}} {
			if _, err := db.Insert("E", tu...); err != nil {
				t.Fatal(err)
			}
		}
		return db, db.Index("E", 0b01)
	}
	for name, corrupt := range map[string]func(ix *Index){
		"stale tuple":   func(ix *Index) { ix.add([]Value{5, 5}) },
		"missing tuple": func(ix *Index) { ix.remove([]Value{1, 3}) },
		"misfiled":      func(ix *Index) { b, _ := ix.buckets.Get([]Value{1}); b.Ref([]Value{2, 9}) },
		"empty bucket":  func(ix *Index) { b, _ := ix.buckets.Ref([]Value{4}); *b = tuplekey.NewTable[struct{}](2) },
	} {
		db, ix := build()
		corrupt(ix)
		if err := db.CheckIndexes(); err == nil {
			t.Errorf("%s: not reported", name)
		}
	}
}

// TestIndexOnUndeclaredRelation: an index asked for before its relation
// exists starts empty, declares nothing, and is filled by the mutator that
// declares the relation — Insert, and the parallel ApplyNetDelta path.
func TestIndexOnUndeclaredRelation(t *testing.T) {
	db := NewSharded(4)
	byX := db.Index("E", 0b01)
	if byX.Bucket([]Value{1}) != nil || db.Relation("E") != nil {
		t.Fatal("an index on an undeclared relation is not empty, or declared it")
	}
	if _, err := db.Insert("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	if b := byX.Bucket([]Value{1}); b == nil || !b.Has([]Value{1, 2}) {
		t.Fatal("the Insert that declared E left its index empty")
	}
	byZ := db.Index("R", 0b100)
	var batch []Update
	for i := Value(0); i < 2*minParallelDelta; i++ {
		batch = append(batch, Insert("R", i, i, i%3))
	}
	delta, err := db.NetDelta(batch)
	if err != nil {
		t.Fatal(err)
	}
	db.ApplyNetDelta(delta, 4)
	if b := byZ.Bucket([]Value{0}); b == nil || b.Len() != 22 {
		t.Fatal("the ApplyNetDelta that declared R did not file 22 tuples under z=0")
	}
	checkIndexesFresh(t, db, "after declaring mutators")
}

// TestClearDropsIndexes: Clear forgets every index along with the
// declarations, so a relation redeclared at another arity gets indexes of
// its new shape rather than buckets keyed for the old one.
func TestClearDropsIndexes(t *testing.T) {
	db := New()
	if _, err := db.Insert("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	old := db.Index("E", 0b01)
	db.Clear()
	if len(db.idx) != 0 {
		t.Fatalf("%d indexes survive Clear", len(db.idx))
	}
	if _, err := db.Insert("E", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if db.Index("E", 0b01) == old {
		t.Fatal("Index after Clear returned the index built before it")
	}
	if b := db.Index("E", 0b011).Bucket([]Value{1, 2}); b == nil || b.Len() != 1 || !b.Has([]Value{1, 2, 3}) {
		t.Fatal("index on the redeclared E does not hold exactly (1,2,3) under (1,2)")
	}
	checkIndexesFresh(t, db, "after Clear and redeclaration")
}

// TestDropIndexes: the mutators stop maintaining released indexes, and
// the next Index call builds a new one from the relation.
func TestDropIndexes(t *testing.T) {
	db := New()
	if _, err := db.Insert("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	old := db.Index("E", 0b01)
	db.DropIndexes()
	if _, err := db.Insert("E", 1, 3); err != nil {
		t.Fatal(err)
	}
	if old.Bucket([]Value{1}).Has([]Value{1, 3}) {
		t.Fatal("a dropped index is still maintained")
	}
	ix := db.Index("E", 0b01)
	if ix == old {
		t.Fatal("Index after DropIndexes returned the dropped index")
	}
	if b := ix.Bucket([]Value{1}); b == nil || b.Len() != 2 {
		t.Fatal("rebuilt index does not hold both E tuples under x=1")
	}
	checkIndexesFresh(t, db, "after DropIndexes")
}

// TestApplyNetDeltaMaintainsIndexes: a delta of inserts and deletes
// against built indexes on every mask of E leaves them equal to a fresh
// build, on the sequential path and on the parallel one.
func TestApplyNetDeltaMaintainsIndexes(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := NewSharded(4)
			var initial []Update
			for i := Value(0); i < 50; i++ {
				initial = append(initial, Insert("E", i%10, i))
			}
			if err := db.ApplyAll(initial); err != nil {
				t.Fatal(err)
			}
			for _, mask := range []uint32{0b01, 0b10, 0b11} {
				db.Index("E", mask)
			}
			var batch []Update
			for i := Value(0); i < 40; i++ {
				if i%2 == 0 {
					batch = append(batch, Insert("E", i%10, 100+i))
				} else {
					batch = append(batch, Delete("E", i%10, i))
				}
			}
			delta, err := db.NetDelta(batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(delta) < minParallelDelta {
				t.Fatalf("delta of %d updates is too small for the parallel path", len(delta))
			}
			db.ApplyNetDelta(delta, workers)
			byX := db.Index("E", 0b01)
			if b := byX.Bucket([]Value{0}); b == nil || b.Len() != 9 {
				t.Fatal("bucket x=0 does not hold its 5 loaded and 4 inserted tuples")
			}
			if b := byX.Bucket([]Value{1}); b == nil || b.Len() != 1 || !b.Has([]Value{1, 41}) {
				t.Fatal("bucket x=1 does not hold exactly the (1,41) the delta left")
			}
			checkIndexesFresh(t, db, "after ApplyNetDelta")
		})
	}
}

// dumpIndex flattens an index into sorted (projection, tuple) pairs for
// order-insensitive comparison.
func dumpIndex(ix *Index) []string {
	var out []string
	ix.buckets.Range(func(p []Value, b *tuplekey.Table[struct{}]) bool {
		return b.Keys(func(t []Value) bool {
			out = append(out, fmt.Sprint(p, t))
			return true
		})
	})
	sort.Strings(out)
	return out
}

// checkIndexesFresh requires every built index of db to pass CheckIndexes
// and to equal the index a relation scan over a copy of db builds.
func checkIndexesFresh(t *testing.T, db *Database, ctx string) {
	t.Helper()
	if err := db.CheckIndexes(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	fresh := db.Clone()
	for k, ix := range db.idx {
		if !reflect.DeepEqual(dumpIndex(ix), dumpIndex(fresh.Index(k.rel, k.mask))) {
			t.Fatalf("%s: index (%s,%b) diverges from a fresh build", ctx, k.rel, k.mask)
		}
	}
}

// TestIndexesMatchFreshBuild is the property test of store-maintained
// indexes: a random sequence of every exported mutator — Insert, Delete,
// Apply, ApplyAll, CopyFrom, Clear, and ApplyNetDelta with deltas large
// enough for the parallel path — interleaved with index builds that
// goroutines race on random masks, leaves every built index equal to a
// fresh build after every step. Under -race the concurrent builds are the
// safety check for evaluators sharing one store.
func TestIndexesMatchFreshBuild(t *testing.T) {
	masks := []indexKey{{"E", 0b01}, {"E", 0b10}, {"E", 0b11}, {"T", 0b1}}
	const readers = 8
	for _, shards := range []int{1, 8} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(41 + 10*shards + workers)))
				db := NewSharded(shards)
				for step := 0; step < 200; step++ {
					var what string
					switch r := rng.Intn(16); {
					case r == 0:
						what = "Clear"
						db.Clear()
					case r == 1:
						what = "CopyFrom"
						src := New()
						if err := src.ApplyAll(randomStream(rng, 40)); err != nil {
							t.Fatal(err)
						}
						if err := db.CopyFrom(src); err != nil {
							t.Fatal(err)
						}
					case r < 4:
						what = "ApplyAll"
						if err := db.ApplyAll(randomStream(rng, 8)); err != nil {
							t.Fatal(err)
						}
					case r < 6:
						what = "Apply"
						if _, err := db.Apply(randomStream(rng, 1)[0]); err != nil {
							t.Fatal(err)
						}
					case r < 8:
						what = "Insert/Delete"
						v1, v2 := int64(rng.Intn(20)), int64(rng.Intn(20))
						if _, err := db.Insert("E", v1, v2); err != nil {
							t.Fatal(err)
						}
						if _, err := db.Delete("E", v2, v1); err != nil {
							t.Fatal(err)
						}
					case r < 11:
						what = "ApplyNetDelta"
						var delta []Update
						for len(delta) < minParallelDelta {
							var err error
							if delta, err = db.NetDelta(randomStream(rng, 160)); err != nil {
								t.Fatal(err)
							}
						}
						db.ApplyNetDelta(delta, workers)
					default:
						what = "concurrent Index"
						var wg sync.WaitGroup
						for r := 0; r < readers; r++ {
							wg.Add(1)
							lrng := rand.New(rand.NewSource(rng.Int63()))
							go func() {
								defer wg.Done()
								for i := 0; i < 4; i++ {
									k := masks[lrng.Intn(len(masks))]
									probe := make([]Value, bits.OnesCount32(k.mask))
									for j := range probe {
										probe[j] = int64(lrng.Intn(20))
									}
									db.Index(k.rel, k.mask).Bucket(probe)
								}
							}()
						}
						wg.Wait()
					}
					checkIndexesFresh(t, db, fmt.Sprintf("step %d (%s)", step, what))
				}
			})
		}
	}
}
