package dyndb

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
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
	if d2.Cardinality() != d.Cardinality() {
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

// TestCloneMatchesSource: a clone holds the source's tuples, declarations
// (empty relations included) and counters, and none of its indexes.
func TestCloneMatchesSource(t *testing.T) {
	src := New()
	if err := src.ApplyAll(randomStream(rand.New(rand.NewSource(5)), 500)); err != nil {
		t.Fatal(err)
	}
	if err := src.EnsureRelation("EMPTY", 3); err != nil {
		t.Fatal(err)
	}
	src.Index("E", 0b01)
	c := src.Clone()
	equalContent(t, c, src)
	checkCounters(t, c)
	if r := c.Relation("EMPTY"); r == nil || r.Arity() != 3 || r.Len() != 0 {
		t.Fatal("the clone dropped the empty relation's declaration")
	}
	if len(c.idx) != 0 {
		t.Fatalf("the clone carries %d indexes", len(c.idx))
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

// TestRelationEachStopsEarly: Each stops at the first false from fn and
// visits nothing on an empty relation.
func TestRelationEachStopsEarly(t *testing.T) {
	d := New()
	for i := Value(0); i < 10; i++ {
		d.Insert("E", i, i+1)
	}
	visits := 0
	d.Relation("E").Each(func([]Value) bool { visits++; return visits < 3 })
	if visits != 3 {
		t.Fatalf("Each visited %d tuples after fn returned false at the third, want 3", visits)
	}
	if err := d.EnsureRelation("Z", 1); err != nil {
		t.Fatal(err)
	}
	d.Relation("Z").Each(func([]Value) bool { t.Fatal("Each visited a tuple of an empty relation"); return false })
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

// TestRandomStreamInvariants runs a random update stream and checks each
// command's changed flag and the maintained |D| against a model.
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

// TestNetDeltaLastCommandWins: per (relation, tuple) only the batch's
// last command survives, in the slot where the tuple first appeared, and
// the survivors reach the state the command-at-a-time ApplyAll of the
// whole batch reaches.
func TestNetDeltaLastCommandWins(t *testing.T) {
	batch := []Update{
		Insert("E", 1, 2),
		Insert("T", 5),
		Delete("E", 1, 2), // supersedes the insert
		Insert("E", 3, 4),
		Insert("E", 1, 2), // last command on E(1,2) wins again
		Delete("T", 5),
	}
	db, ref := New(), New()
	for _, d := range []*Database{db, ref} {
		if _, err := d.Insert("T", 5); err != nil {
			t.Fatal(err)
		}
	}
	net, err := db.NetDelta(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := []Update{
		Insert("E", 1, 2), // slot of first appearance, final command = insert
		Delete("T", 5),
		Insert("E", 3, 4),
	}
	if len(net) != len(want) {
		t.Fatalf("NetDelta gave %d updates, want %d: %v", len(net), len(want), net)
	}
	for i := range want {
		if net[i].String() != want[i].String() {
			t.Errorf("net[%d] = %v, want %v", i, net[i], want[i])
		}
	}
	// The input must be untouched.
	if batch[0].String() != "insert E[1 2]" || batch[2].String() != "delete E[1 2]" {
		t.Errorf("input mutated: %v", batch)
	}
	db.ApplyNetDelta(net, 0)
	if err := ref.ApplyAll(batch); err != nil {
		t.Fatal(err)
	}
	if db.Cardinality() != 2 || !db.Has("E", 1, 2) || !db.Has("E", 3, 4) || db.Has("T", 5) {
		t.Errorf("unexpected state: |D|=%d", db.Cardinality())
	}
	equalContent(t, db, ref)
}

// TestNetDeltaDistinguishesRelations: the same tuple in different
// relations never merges.
func TestNetDeltaDistinguishesRelations(t *testing.T) {
	db := New()
	if _, err := db.Insert("E", 1); err != nil {
		t.Fatal(err)
	}
	net, err := db.NetDelta([]Update{
		Insert("E", 1),
		Insert("F", 1),
		Delete("E", 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(net) != 2 {
		t.Fatalf("NetDelta merged across relations: %v", net)
	}
	if net[0].Op != OpDelete || net[0].Rel != "E" || net[1].Op != OpInsert || net[1].Rel != "F" {
		t.Errorf("net = %v", net)
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
	if db.Cardinality() != 0 || len(db.Relations()) != 0 {
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

// TestClearThenReload: a cleared store reloads to exactly the state of a
// fresh one, through both ApplyAll and ApplyNetDelta, so the pointer the
// workspace shares stays usable across Load cycles.
func TestClearThenReload(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := New()
	if err := db.ApplyAll(randomStream(rng, 300)); err != nil {
		t.Fatal(err)
	}
	db.Index("E", 0b10)
	load, batch := randomStream(rng, 300), randomStream(rng, 300)
	fresh := New()
	if err := fresh.ApplyAll(load); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ApplyAll(batch); err != nil {
		t.Fatal(err)
	}
	db.Clear()
	if err := db.ApplyAll(load); err != nil {
		t.Fatal(err)
	}
	db.Index("E", 0b01)
	delta, err := db.NetDelta(batch)
	if err != nil {
		t.Fatal(err)
	}
	db.ApplyNetDelta(delta, 0)
	equalContent(t, db, fresh)
	checkCounters(t, db)
	checkIndexesFresh(t, db, "after Clear and reload")
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
	if b := first.Bucket([]Value{1}); b.Len() != 2 || !bucketHas(b, []Value{1, 4}) || bucketHas(b, []Value{1, 2}) {
		t.Fatal("bucket(1,·) not maintained by Insert/Delete")
	}
	if first.Bucket([]Value{7}).Len() != 0 {
		t.Fatal("a projection with no tuples has a bucket")
	}
	if err := db.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckIndexesSeesCorruption: each way an index can disagree with its
// relation, and each way the relation's own storage can break, is
// reported. E holds (1,2), (1,3) and (2,9), indexed on x: the list under
// 1 has two tuples, the list under 2 one, each list one block.
func TestCheckIndexesSeesCorruption(t *testing.T) {
	build := func() (*Database, *Relation, *Index) {
		db := New()
		for _, tu := range [][]Value{{1, 2}, {1, 3}, {2, 9}} {
			if _, err := db.Insert("E", tu...); err != nil {
				t.Fatal(err)
			}
		}
		ix := db.Index("E", 0b01)
		if err := db.CheckIndexes(); err != nil {
			t.Fatal(err)
		}
		return db, db.Relation("E"), ix
	}
	ref := func(r *Relation, tuple ...Value) uint32 {
		_, ref := r.find(tuple, tuplekey.Hash(tuple))
		if ref == 0 {
			t.Fatalf("%v is not stored", tuple)
		}
		return ref
	}
	// A freed record still stored, and a list block on the pool's free
	// chain, are the arena audit's to report.
	viaArena := map[string]bool{"slot names a freed record": true, "block on the free chain": true}
	for name, corrupt := range map[string]func(r *Relation, ix *Index){
		"tuple missing from a list": func(r *Relation, ix *Index) { ix.remove(ref(r, 1, 3), []Value{1, 3}) },
		"list count off by one":     func(r *Relation, ix *Index) { ix.lists.Ptr([]Value{1}).n++ },
		"link to a freed record": func(r *Relation, ix *Index) {
			slot, gone := r.find([]Value{1, 3}, tuplekey.Hash([]Value{1, 3}))
			r.slots.Free(slot) // freed behind the index's back
			r.recs.Free(gone)
		},
		"list cycle": func(r *Relation, ix *Index) {
			head := ix.lists.Ptr([]Value{1}).head
			ix.block(head)[0] = head
		},
		"block on the free chain": func(r *Relation, ix *Index) {
			head := ix.lists.Ptr([]Value{2}).head
			ix.blocks.Free(head)
		},
		"slot names a freed record": func(r *Relation, ix *Index) {
			r.recs.Free(ref(r, 2, 9))
		},
		"misfiled": func(r *Relation, ix *Index) {
			ix.remove(ref(r, 1, 3), []Value{1, 3})
			ix.add(ref(r, 1, 3), []Value{2, 3})
		},
		"empty list": func(r *Relation, ix *Index) { ix.lists.Ref([]Value{4}) },
		"position":   func(r *Relation, ix *Index) { *ix.at(ref(r, 1, 2)) ^= 1 },
	} {
		db, r, ix := build()
		corrupt(r, ix)
		if err := db.CheckIndexes(); err == nil {
			t.Errorf("%s: not reported", name)
		} else if viaArena[name] && !strings.Contains(err.Error(), "free chain") {
			t.Errorf("%s: reported %q, not by the arena's free-chain audit", name, err)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestIndexListsSpanBlocks: a list longer than a block keeps every tuple
// through deletes at its oldest end, its newest end and its middle, which
// empty the head block and take refs out of full blocks behind it; once
// the key is drained every block is on the free chain, and refilling it
// takes them back without handing out a new one.
func TestIndexListsSpanBlocks(t *testing.T) {
	const n = 3*blockRefs + 4
	db := New()
	ix := db.Index("E", 0b01)
	for y := Value(0); y < n; y++ {
		if _, err := db.Insert("E", 1, y); err != nil {
			t.Fatal(err)
		}
	}
	if b := ix.Bucket([]Value{1}); b.Len() != n {
		t.Fatalf("bucket x=1 holds %d tuples, want %d", b.Len(), n)
	}
	blocks := ix.blocks.N()
	for i, y := range []Value{0, n - 1, n / 2, 1, n - 2, blockRefs, blockRefs + 1} {
		if changed, _ := db.Delete("E", 1, y); !changed {
			t.Fatalf("(1,%d) was not stored", y)
		}
		checkIndexesFresh(t, db, fmt.Sprintf("delete %d: (1,%d)", i, y))
	}
	for y := Value(0); y < n; y++ {
		db.Delete("E", 1, y)
	}
	checkIndexesFresh(t, db, "drained")
	if ix.Bucket([]Value{1}).Len() != 0 || ix.lists.Len() != 0 {
		t.Fatal("the drained key keeps a list")
	}
	for y := Value(0); y < n; y++ {
		db.Insert("E", 1, y)
	}
	checkIndexesFresh(t, db, "refilled")
	if ix.blocks.N() != blocks {
		t.Fatalf("refilling handed out %d blocks, the first fill %d", ix.blocks.N(), blocks)
	}
}

// TestIndexOnUndeclaredRelation: an index asked for before its relation
// exists starts empty, declares nothing, and is filled by the mutator that
// declares the relation — Insert, and ApplyNetDelta.
func TestIndexOnUndeclaredRelation(t *testing.T) {
	db := New()
	byX := db.Index("E", 0b01)
	if byX.Bucket([]Value{1}).Len() != 0 || db.Relation("E") != nil {
		t.Fatal("an index on an undeclared relation is not empty, or declared it")
	}
	if _, err := db.Insert("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	if b := byX.Bucket([]Value{1}); !bucketHas(b, []Value{1, 2}) {
		t.Fatal("the Insert that declared E left its index empty")
	}
	byZ := db.Index("R", 0b100)
	var batch []Update
	for i := Value(0); i < 64; i++ {
		batch = append(batch, Insert("R", i, i, i%3))
	}
	delta, err := db.NetDelta(batch)
	if err != nil {
		t.Fatal(err)
	}
	db.ApplyNetDelta(delta, 0)
	if b := byZ.Bucket([]Value{0}); b.Len() != 22 {
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
	if b := db.Index("E", 0b011).Bucket([]Value{1, 2}); b.Len() != 1 || !bucketHas(b, []Value{1, 2, 3}) {
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
	if bucketHas(old.Bucket([]Value{1}), []Value{1, 3}) {
		t.Fatal("a dropped index is still maintained")
	}
	ix := db.Index("E", 0b01)
	if ix == old {
		t.Fatal("Index after DropIndexes returned the dropped index")
	}
	if b := ix.Bucket([]Value{1}); b.Len() != 2 {
		t.Fatal("rebuilt index does not hold both E tuples under x=1")
	}
	checkIndexesFresh(t, db, "after DropIndexes")
}

// TestApplyNetDeltaMaintainsIndexes: a delta of inserts and deletes
// against built indexes on every mask of E leaves them equal to a fresh
// build.
func TestApplyNetDeltaMaintainsIndexes(t *testing.T) {
	db := New()
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
	db.ApplyNetDelta(delta, 0)
	byX := db.Index("E", 0b01)
	if b := byX.Bucket([]Value{0}); b.Len() != 9 {
		t.Fatal("bucket x=0 does not hold its 5 loaded and 4 inserted tuples")
	}
	if b := byX.Bucket([]Value{1}); b.Len() != 1 || !bucketHas(b, []Value{1, 41}) {
		t.Fatal("bucket x=1 does not hold exactly the (1,41) the delta left")
	}
	checkIndexesFresh(t, db, "after ApplyNetDelta")
}

// dumpIndex flattens an index into sorted (projection, tuple) pairs for
// order-insensitive comparison.
func dumpIndex(ix *Index) []string {
	var out []string
	ix.lists.Range(func(p []Value, _ list) bool {
		return ix.Bucket(p).Each(func(t []Value) bool {
			out = append(out, fmt.Sprint(p, t))
			return true
		})
	})
	sort.Strings(out)
	return out
}

// bucketHas reports whether the bucket holds tuple.
func bucketHas(b Bucket, tuple []Value) bool {
	return !b.Each(func(t []Value) bool { return !slices.Equal(t, tuple) })
}

// checkIndexesFresh requires every built index of db to pass CheckIndexes
// and to equal the index a relation scan over a copy of db builds.
func checkIndexesFresh(t *testing.T, db *Database, ctx string) {
	t.Helper()
	if err := db.CheckIndexes(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	fresh := db.Clone()
	for id, built := range db.idx {
		for _, ix := range built {
			rel := db.rels[id].name
			if !reflect.DeepEqual(dumpIndex(ix), dumpIndex(fresh.Index(rel, ix.mask))) {
				t.Fatalf("%s: index (%s,%b) diverges from a fresh build", ctx, rel, ix.mask)
			}
		}
	}
}

// indexKey names one index for the tests: a relation and the positions
// it is keyed by.
type indexKey struct {
	rel  string
	mask uint32
}

// TestIndexesMatchFreshBuild is the property test of store-maintained
// indexes: a random sequence of every exported mutator — Insert, Delete,
// Apply, ApplyAll, CopyFrom, Clear, and ApplyNetDelta with multi-command
// deltas — interleaved with index builds and probes on random masks,
// leaves every built index equal to a fresh build after every step.
func TestIndexesMatchFreshBuild(t *testing.T) {
	masks := []indexKey{{"E", 0b01}, {"E", 0b10}, {"E", 0b11}, {"T", 0b1}}
	rng := rand.New(rand.NewSource(41))
	db := New()
	for step := 0; step < 400; step++ {
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
			delta, err := db.NetDelta(randomStream(rng, 160))
			if err != nil {
				t.Fatal(err)
			}
			db.ApplyNetDelta(delta, 0)
		default:
			what = "Index"
			for i := 0; i < 32; i++ {
				k := masks[rng.Intn(len(masks))]
				probe := make([]Value, bits.OnesCount32(k.mask))
				for j := range probe {
					probe[j] = int64(rng.Intn(20))
				}
				db.Index(k.rel, k.mask).Bucket(probe)
			}
		}
		checkIndexesFresh(t, db, fmt.Sprintf("step %d (%s)", step, what))
	}
}
