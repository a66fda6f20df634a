package workload

import (
	"math/rand"
	"testing"

	"dyncq/internal/dyndb"
	"dyncq/internal/qtree"
)

// TestRandomQHierarchicalClassifies: generated queries must be valid and
// must classify as q-hierarchical under both the q-tree decision
// procedure and the brute-force Definition 3.1 predicate, across option
// combinations.
func TestRandomQHierarchicalClassifies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	opts := []QHierarchicalOptions{
		DefaultQHOptions(),
		{MaxVars: 1, MaxAtoms: 0},
		{MaxVars: 8, MaxAtoms: 5, AllowSelfJoin: false, AllowRepeats: false},
		{MaxVars: 5, MaxAtoms: 2, ForceBoolean: true},
		{MaxVars: 10, MaxAtoms: 4, AllowSelfJoin: true, AllowRepeats: true},
	}
	for oi, opt := range opts {
		for trial := 0; trial < 200; trial++ {
			q := RandomQHierarchical(rng, opt)
			if err := q.Validate(); err != nil {
				t.Fatalf("opt %d trial %d: invalid query %s: %v", oi, trial, q, err)
			}
			if !qtree.IsQHierarchical(q) {
				t.Fatalf("opt %d trial %d: %s not q-hierarchical per qtree", oi, trial, q)
			}
			if !q.IsQHierarchicalByDefinition() {
				t.Fatalf("opt %d trial %d: %s fails Definition 3.1 brute force", oi, trial, q)
			}
			if opt.ForceBoolean && !q.IsBoolean() {
				t.Fatalf("opt %d trial %d: ForceBoolean produced head %v", oi, trial, q.Head)
			}
		}
	}
}

// TestRandomStreamWellFormed: a random stream must have the requested
// length, respect the schema arities and domain, and contain only valid
// deletions — replaying it tuple by tuple, every update changes the
// database.
func TestRandomStreamWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	schema := map[string]int{"E": 2, "T": 1, "R": 3}
	const domain = 10
	stream := RandomStream(rng, schema, domain, 500, 0.4)
	if len(stream) != 500 {
		t.Fatalf("stream length %d, want 500", len(stream))
	}
	db := dyndb.New()
	deletes := 0
	for i, u := range stream {
		ar, ok := schema[u.Rel]
		if !ok {
			t.Fatalf("update %d: unknown relation %s", i, u.Rel)
		}
		if len(u.Tuple) != ar {
			t.Fatalf("update %d: %s arity %d, want %d", i, u.Rel, len(u.Tuple), ar)
		}
		for _, v := range u.Tuple {
			if v < 1 || v > domain {
				t.Fatalf("update %d: value %d outside domain [1,%d]", i, v, domain)
			}
		}
		if u.Op == dyndb.OpDelete {
			deletes++
		}
		changed, err := db.Apply(u)
		if err != nil {
			t.Fatalf("update %d (%s): %v", i, u, err)
		}
		if !changed {
			t.Fatalf("update %d (%s): no-op update in stream", i, u)
		}
	}
	if deletes == 0 {
		t.Fatal("no deletions generated at pDelete=0.4")
	}
}

// TestRandomStreamDeterministic: the same seed must produce the same
// stream (benchmarks depend on this for reproducibility).
func TestRandomStreamDeterministic(t *testing.T) {
	schema := map[string]int{"E": 2, "T": 1}
	a := RandomStream(rand.New(rand.NewSource(9)), schema, 8, 200, 0.3)
	b := RandomStream(rand.New(rand.NewSource(9)), schema, 8, 200, 0.3)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("update %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestRandomDatabase: generated databases must respect the schema.
func TestRandomDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	schema := map[string]int{"E": 2, "T": 1}
	db := RandomDatabase(rng, schema, 20, 30)
	for rel, ar := range schema {
		r := db.Relation(rel)
		if r == nil {
			t.Fatalf("relation %s missing", rel)
		}
		if r.Arity() != ar {
			t.Fatalf("relation %s arity %d, want %d", rel, r.Arity(), ar)
		}
		if r.Len() == 0 || r.Len() > 30 {
			t.Fatalf("relation %s has %d tuples, want 1..30", rel, r.Len())
		}
	}
}
