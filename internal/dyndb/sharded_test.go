package dyndb

import (
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
	if a.ActiveDomainSize() != b.ActiveDomainSize() {
		t.Fatalf("adom size %d vs %d", a.ActiveDomainSize(), b.ActiveDomainSize())
	}
	if a.Size() != b.Size() {
		t.Fatalf("||D|| %d vs %d", a.Size(), b.Size())
	}
	if !reflect.DeepEqual(a.ActiveDomain(), b.ActiveDomain()) {
		t.Fatalf("active domains diverge: %v vs %v", a.ActiveDomain(), b.ActiveDomain())
	}
	if !reflect.DeepEqual(a.Relations(), b.Relations()) {
		t.Fatalf("relations diverge: %v vs %v", a.Relations(), b.Relations())
	}
	for _, rel := range a.Relations() {
		if !reflect.DeepEqual(a.Relation(rel).Tuples(), b.Relation(rel).Tuples()) {
			t.Fatalf("relation %s content diverges", rel)
		}
	}
}

// TestShardedMatchesUnsharded: the shard count is invisible in every
// observable quantity under a random replayed stream.
func TestShardedMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream := randomStream(rng, 3000)
	base := New()
	for _, shards := range []int{2, 3, 8} {
		db := NewSharded(shards)
		if db.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", db.Shards(), shards)
		}
		if err := db.ApplyAll(stream); err != nil {
			t.Fatal(err)
		}
		if base.Cardinality() == 0 {
			if err := base.ApplyAll(stream); err != nil {
				t.Fatal(err)
			}
		}
		equalContent(t, db, base)
		for _, v := range base.ActiveDomain() {
			if !db.InActiveDomain(v) {
				t.Fatalf("shards=%d: %d missing from active domain", shards, v)
			}
		}
	}
}

// TestApplyNetDeltaParallelMatchesSequential: the parallel net-delta
// application reaches exactly the sequential state, including the
// mutation counter, at every worker count.
func TestApplyNetDeltaParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		init := randomStream(rng, 400)
		batch := randomStream(rng, 600)
		seq := NewSharded(8)
		if err := seq.ApplyAll(init); err != nil {
			t.Fatal(err)
		}
		seqDelta, err := seq.NetDelta(batch)
		if err != nil {
			t.Fatal(err)
		}
		seq.ApplyNetDelta(seqDelta, 1)

		for _, workers := range []int{2, 4} {
			par := NewSharded(8)
			if err := par.ApplyAll(init); err != nil {
				t.Fatal(err)
			}
			delta, err := par.NetDelta(batch)
			if err != nil {
				t.Fatal(err)
			}
			if n := par.ApplyNetDelta(delta, workers); n != len(delta) {
				t.Fatalf("applied %d of %d", n, len(delta))
			}
			equalContent(t, par, seq)
			if par.Mutations() != seq.Mutations() {
				t.Fatalf("mutations %d vs %d", par.Mutations(), seq.Mutations())
			}
		}
	}
}

// TestApplyNetDeltaFreshRelations: a parallel delta that declares new
// relations mid-batch works (declaration happens in the sequential
// prologue).
func TestApplyNetDeltaFreshRelations(t *testing.T) {
	db := NewSharded(4)
	var batch []Update
	for i := int64(0); i < 64; i++ {
		batch = append(batch, Insert("A", i), Insert("B", i, i+1))
	}
	delta, err := db.NetDelta(batch)
	if err != nil {
		t.Fatal(err)
	}
	db.ApplyNetDelta(delta, 4)
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
	db := NewSharded(2)
	if _, err := db.Insert("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no-op command accepted as net delta")
		}
	}()
	db.ApplyNetDelta([]Update{Insert("E", 1, 2)}, 1)
}

// TestClearKeepsShards: Clear preserves the shard layout so the parallel
// path stays available across Load cycles.
func TestClearKeepsShards(t *testing.T) {
	db := NewSharded(4)
	if err := db.ApplyAll(randomStream(rand.New(rand.NewSource(3)), 200)); err != nil {
		t.Fatal(err)
	}
	db.Clear()
	if db.Shards() != 4 {
		t.Fatalf("Shards() = %d after Clear, want 4", db.Shards())
	}
	if db.Cardinality() != 0 || db.ActiveDomainSize() != 0 {
		t.Fatal("Clear left content behind")
	}
	if err := db.ApplyAll(randomStream(rand.New(rand.NewSource(4)), 200)); err != nil {
		t.Fatal(err)
	}
}
