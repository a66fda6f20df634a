package dyncq

import (
	"math/rand"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
)

// This file pins the two cross-backend contracts of the front door:
//
//   - Enumerate yields callee-owned slices (valid only during the call;
//     retention requires a copy, which Tuples performs), and an abusive
//     caller that mutates the yielded slice cannot corrupt the query;
//   - Load is reset-then-load on every backend: after Load the workspace
//     represents exactly the loaded database.

// TestEnumerateContract drives every backend through the same data and
// checks the aliasing rules: copied yields must equal Tuples() and the
// oracle; Tuples() must return freshly allocated slices (mutation-proof);
// and mutating the yielded slice inside yield must corrupt neither the
// rest of the enumeration's copied values nor the maintained state.
func TestEnumerateContract(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	queries := []*cq.Query{
		cq.MustParse("Q(y) :- E(x,y), T(y)"),
		cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)"),
		cq.MustParse("Q(x,u) :- S(x), U(u)"),
	}
	for i := 0; i < 3; i++ {
		queries = append(queries, workload.RandomQHierarchical(rng, workload.DefaultQHOptions()))
	}
	for _, q := range queries {
		db := workload.RandomDatabase(rng, q.Schema(), 6, 40)
		want := eval.Evaluate(q, db)
		for _, st := range []Strategy{StrategyAuto, StrategyIVM, StrategyRecompute} {
			ws, h := solo(t, q, Options{Force: st})
			if err := ws.Load(db); err != nil {
				t.Fatal(err)
			}
			// 1. Copied yields agree with Tuples() and the oracle.
			var copied [][]Value
			h.Enumerate(func(tu []Value) bool {
				copied = append(copied, append([]Value(nil), tu...))
				return true
			})
			if !sameTuples(copied, h.Tuples()) {
				t.Fatalf("%s [%v]: copied enumeration disagrees with Tuples()", q, h.Strategy())
			}
			if !sameTuples(copied, want.Tuples()) {
				t.Fatalf("%s [%v]: enumeration disagrees with oracle", q, h.Strategy())
			}
			// 2. Tuples() hands out fresh slices: scribbling over them must
			// not be visible to a second call.
			got := h.Tuples()
			for _, tu := range got {
				for i := range tu {
					tu[i] = -999
				}
			}
			if len(got) > 0 && len(got[0]) > 0 && !sameTuples(h.Tuples(), want.Tuples()) {
				t.Fatalf("%s [%v]: mutating Tuples() output corrupted a later Tuples()", q, h.Strategy())
			}
			// 3. An abusive yield that scribbles over every slice it is
			// handed: values copied BEFORE the scribble must stay correct,
			// and the query must remain fully intact afterwards.
			var abused [][]Value
			h.Enumerate(func(tu []Value) bool {
				abused = append(abused, append([]Value(nil), tu...))
				for i := range tu {
					tu[i] = -12345
				}
				return true
			})
			if !sameTuples(abused, want.Tuples()) {
				t.Fatalf("%s [%v]: slice reuse leaked a caller mutation into a later yield", q, h.Strategy())
			}
			if got := h.Count(); got != uint64(want.Len()) {
				t.Fatalf("%s [%v]: count %d after abusive enumeration, want %d", q, h.Strategy(), got, want.Len())
			}
			if !sameTuples(h.Tuples(), want.Tuples()) {
				t.Fatalf("%s [%v]: maintained state corrupted by mutating yielded slices", q, h.Strategy())
			}
		}
	}
}

// TestLoadReplacesState: Load on a non-empty workspace resets to exactly
// the loaded database on every backend — the same observable behaviour
// everywhere, then updates keep working on the fresh state.
func TestLoadReplacesState(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	first := workload.RandomDatabase(rng, q.Schema(), 8, 30)
	second := workload.RandomDatabase(rng, q.Schema(), 8, 25)
	want := eval.Evaluate(q, second)
	for _, st := range []Strategy{StrategyCore, StrategyIVM, StrategyRecompute} {
		ws, h := solo(t, q, Options{Force: st})
		// Dirty the workspace: a load plus some single updates.
		if err := ws.Load(first); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.Insert("E", 900, 901); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.Insert("T", 901); err != nil {
			t.Fatal(err)
		}
		// Reload: everything above must vanish.
		if err := ws.Load(second); err != nil {
			t.Fatalf("[%v]: Load on non-empty workspace: %v", st, err)
		}
		if got := h.Count(); got != uint64(want.Len()) {
			t.Fatalf("[%v]: count %d after reload, oracle %d", st, got, want.Len())
		}
		if ws.Cardinality() != second.Cardinality() {
			t.Fatalf("[%v]: |D| = %d after reload, want %d", st, ws.Cardinality(), second.Cardinality())
		}
		if !sameTuples(h.Tuples(), want.Tuples()) {
			t.Fatalf("[%v]: tuples after reload disagree with oracle", st)
		}
		// The workspace stays live: updates against the new state agree with
		// the oracle.
		oracle := second.Clone()
		stream := workload.RandomStream(rng, q.Schema(), 8, 60, 0.4)
		for _, u := range stream {
			if _, err := ws.Apply(u); err != nil {
				t.Fatal(err)
			}
			if _, err := oracle.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		if got, w := h.Count(), eval.Count(q, oracle); got != uint64(w) {
			t.Fatalf("[%v]: count %d after post-reload stream, oracle %d", st, got, w)
		}
	}
}

// TestLoadFailureLeavesEmpty: a Load that fails (arity clash against the
// query schema) leaves the workspace representing the EMPTY database on
// every backend — prior state is discarded either way — and the
// workspace stays fully usable.
func TestLoadFailureLeavesEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	good := workload.RandomDatabase(rng, q.Schema(), 8, 20)
	bad := dyndb.New()
	if _, err := bad.Insert("E", 1); err != nil { // unary E, query wants binary
		t.Fatal(err)
	}
	for _, st := range []Strategy{StrategyCore, StrategyIVM, StrategyRecompute} {
		ws, h := solo(t, q, Options{Force: st})
		if err := ws.Load(good); err != nil {
			t.Fatal(err)
		}
		if err := ws.Load(bad); err == nil {
			t.Fatalf("[%v]: mismatched-arity Load accepted", st)
		}
		if h.Count() != 0 || h.Answer() || ws.Cardinality() != 0 {
			t.Fatalf("[%v]: count=%d answer=%v |D|=%d after failed Load, want empty",
				st, h.Count(), h.Answer(), ws.Cardinality())
		}
		// Still alive: fresh updates behave normally.
		if _, err := ws.Insert("E", 1, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.Insert("T", 2); err != nil {
			t.Fatal(err)
		}
		if h.Count() != 1 {
			t.Fatalf("[%v]: count %d after recovery inserts, want 1", st, h.Count())
		}
	}
}

// TestLoadForgetsDrainedForeignRelations: inserting and deleting a tuple
// of a relation outside the query schema must not leave a stale arity
// registration that breaks a later Load declaring that relation with a
// different arity (reset-then-load means ALL prior state is gone).
func TestLoadForgetsDrainedForeignRelations(t *testing.T) {
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	for _, st := range []Strategy{StrategyCore, StrategyIVM, StrategyRecompute} {
		ws, h := solo(t, q, Options{Force: st})
		if _, err := ws.Insert("X", 1); err != nil { // X is not in the query
			t.Fatal(err)
		}
		if _, err := ws.Delete("X", 1); err != nil {
			t.Fatal(err)
		}
		db := dyndb.New()
		if _, err := db.Insert("X", 1, 2); err != nil { // X with arity 2 now
			t.Fatal(err)
		}
		if _, err := db.Insert("E", 1, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("T", 2); err != nil {
			t.Fatal(err)
		}
		if err := ws.Load(db); err != nil {
			t.Fatalf("[%v]: Load after draining foreign relation X: %v", st, err)
		}
		if h.Count() != 1 || ws.Cardinality() != 3 {
			t.Fatalf("[%v]: count=%d |D|=%d after Load, want 1 and 3", st, h.Count(), ws.Cardinality())
		}
	}
}
