package dyncq

import (
	"fmt"
	"math/rand"
	"reflect"
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
//     represents exactly the loaded database, and a Load that fails
//     validation changes nothing.

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
		for _, st := range []Strategy{StrategyAuto, StrategyIVM} {
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
	for _, st := range []Strategy{StrategyCore, StrategyIVM} {
		ws, h := solo(t, q, Options{Force: st})
		// Dirty the workspace: a load plus some single updates.
		if err := ws.Load(first); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ws.Commit([]Update{Insert("E", 900, 901)}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ws.Commit([]Update{Insert("T", 901)}); err != nil {
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
			if _, _, err := ws.Commit([]Update{u}); err != nil {
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

// TestLoadFailureKeepsPriorState: a Load that fails (arity clash against
// the query schema) is rejected atomically on every backend — the store,
// the result and the version are exactly what the last good Load left,
// checked against an oracle that never saw the failed one — and the
// workspace stays fully usable.
func TestLoadFailureKeepsPriorState(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	good := workload.RandomDatabase(rng, q.Schema(), 8, 20)
	bad := dyndb.New()
	if _, err := bad.Insert("E", 1); err != nil { // unary E, query wants binary
		t.Fatal(err)
	}
	for _, st := range []Strategy{StrategyCore, StrategyIVM} {
		ws, h := solo(t, q, Options{Force: st})
		if err := ws.Load(good); err != nil {
			t.Fatal(err)
		}
		oracle := good.Clone()
		v := ws.Version()
		if err := ws.Load(bad); err == nil {
			t.Fatalf("[%v]: mismatched-arity Load accepted", st)
		}
		if ws.Version() != v || ws.Cardinality() != oracle.Cardinality() {
			t.Fatalf("[%v]: version %d |D|=%d after failed Load, want %d and %d",
				st, ws.Version(), ws.Cardinality(), v, oracle.Cardinality())
		}
		if want := eval.Evaluate(q, oracle).Tuples(); !sameTuples(h.Tuples(), want) || h.Count() != uint64(len(want)) {
			t.Fatalf("[%v]: count=%d tuples=%v after failed Load, oracle %v", st, h.Count(), h.Tuples(), want)
		}
		// Still alive: fresh updates behave normally.
		for _, u := range []Update{Insert("E", 100, 200), Insert("T", 200)} {
			if _, _, err := ws.Commit([]Update{u}); err != nil {
				t.Fatal(err)
			}
			if _, err := oracle.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		if want := eval.Count(q, oracle); h.Count() != uint64(want) {
			t.Fatalf("[%v]: count %d after recovery inserts, oracle %d", st, h.Count(), want)
		}
	}
}

// TestLoadFailureChangesNothing: a failed Load is rejected like a batch
// on every backend, beside a second query, read side included —
// count, result (in enumeration order), |D|, version and store mutations
// are unchanged, the capture hook gets no event, the cached snapshot is
// the same pointer — and the next commit's event carries the next
// version.
func TestLoadFailureChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	good := workload.RandomDatabase(rng, q.Schema(), 8, 40)
	bad := dyndb.New()
	if _, err := bad.Insert("T", 1, 2); err != nil { // binary T, the queries want unary
		t.Fatal(err)
	}
	for _, st := range []Strategy{StrategyCore, StrategyIVM} {
		at := fmt.Sprintf("[%v]", st)
		ws := NewWorkspace(WorkspaceOptions{})
		h, err := ws.RegisterQuery("q", q, Options{Force: st})
		if err != nil {
			t.Fatal(err)
		}
		// A second handle, so that the load fans out to two.
		if _, err := ws.RegisterQuery("pairs", cq.MustParse("Q(x,y) :- E(x,y), T(y)"), Options{Force: st}); err != nil {
			t.Fatal(err)
		}
		if err := ws.Load(good); err != nil {
			t.Fatal(err)
		}
		var events []DeltaEvent
		if err := ws.CaptureDeltas("q", func(ev DeltaEvent) { events = append(events, ev) }); err != nil {
			t.Fatal(err)
		}
		pin := h.Snapshot()
		if h.cachedSnapshot() != pin {
			t.Fatalf("%s: the pin is not cached", at)
		}
		count, tuples := h.Count(), h.Tuples()
		card, version, muts := ws.Cardinality(), ws.Version(), ws.StoreMutations()

		if err := ws.Load(bad); err == nil {
			t.Fatalf("%s: mismatched-arity Load accepted", at)
		}
		if h.Count() != count || !reflect.DeepEqual(h.Tuples(), tuples) {
			t.Fatalf("%s: count %d tuples %v after failed Load, were %d %v", at, h.Count(), h.Tuples(), count, tuples)
		}
		if ws.Cardinality() != card || ws.Version() != version || ws.StoreMutations() != muts {
			t.Fatalf("%s: |D| %d version %d mutations %d after failed Load, were %d %d %d",
				at, ws.Cardinality(), ws.Version(), ws.StoreMutations(), card, version, muts)
		}
		if len(events) != 0 {
			t.Fatalf("%s: failed Load delivered %d events", at, len(events))
		}
		if h.cachedSnapshot() != pin {
			t.Fatalf("%s: failed Load replaced the cached snapshot", at)
		}

		if _, _, err := ws.Commit([]Update{Insert("E", 100, 200), Insert("T", 200)}); err != nil {
			t.Fatal(err)
		}
		if len(events) != 1 || events[0].Version != version+1 || !reflect.DeepEqual(events[0].Added, [][]Value{{200}}) || len(events[0].Removed) != 0 {
			t.Fatalf("%s: events after the next commit %+v, want one at version %d adding (200)", at, events, version+1)
		}
	}
}

// TestLoadForgetsDrainedForeignRelations: inserting and deleting a tuple
// of a relation outside the query schema must not leave a stale arity
// registration that breaks a later Load declaring that relation with a
// different arity (reset-then-load means ALL prior state is gone).
func TestLoadForgetsDrainedForeignRelations(t *testing.T) {
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	for _, st := range []Strategy{StrategyCore, StrategyIVM} {
		ws, h := solo(t, q, Options{Force: st})
		if _, _, err := ws.Commit([]Update{Insert("X", 1)}); err != nil { // X is not in the query
			t.Fatal(err)
		}
		if _, _, err := ws.Commit([]Update{Delete("X", 1)}); err != nil {
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
