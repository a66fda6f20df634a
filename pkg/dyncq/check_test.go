package dyncq

import (
	"slices"
	"strings"
	"testing"

	"dyncq/internal/dyndb"
)

func TestCheckInvariantsHealthyWorkspace(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	if _, err := ws.Register("core", "Q(y) :- E(x,y), T(y)"); err != nil {
		t.Fatal(err)
	}
	// An IVM query so its delta joins build store indexes for the check to
	// verify.
	if _, err := ws.Register("hard", "Q(x,y) :- S(x), E(x,y), T(y)"); err != nil {
		t.Fatal(err)
	}
	if err := ws.CheckInvariants(); err != nil {
		t.Fatalf("fresh workspace: %v", err)
	}
	updates := []Update{
		Insert("E", 1, 2), Insert("E", 2, 3), Insert("T", 2), Insert("S", 1),
		Delete("E", 1, 2), Insert("E", 1, 2),
	}
	for _, u := range updates {
		if _, _, err := ws.Commit([]Update{u}); err != nil {
			t.Fatal(err)
		}
		if err := ws.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", u, err)
		}
	}
	// Force index builds by reading the IVM query, then re-check.
	ws.Handle("hard").Count()
	if _, _, err := ws.Commit([]Update{Insert("E", 5, 6), Insert("T", 6), Delete("S", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := ws.CheckInvariants(); err != nil {
		t.Fatalf("after batch: %v", err)
	}
}

// TestDirectStoreMutationKeepsIndexes: the store maintains its own
// indexes, so a write straight to the shared store of an IVM workspace —
// bypassing the update pipeline — still leaves every built index equal to
// its relation.
func TestDirectStoreMutationKeepsIndexes(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	if _, err := ws.Register("hard", "Q(x,y) :- S(x), E(x,y), T(y)"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.Commit([]Update{Insert("S", 1), Insert("E", 1, 2), Insert("T", 2)}); err != nil {
		t.Fatal(err)
	}
	byX := ws.store.Index("E", 0b01)
	if _, err := ws.store.Insert("E", 1, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.store.Delete("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := ws.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if b := byX.Bucket([]Value{1}); b.Len() != 1 || !bucketHas(b, []Value{1, 9}) {
		t.Fatalf("index on E's first position does not hold exactly (1,9) under 1")
	}
}

// bucketHas reports whether the index bucket holds tuple.
func bucketHas(b dyndb.Bucket, tuple []Value) bool {
	return !b.Each(func(t []Value) bool { return !slices.Equal(t, tuple) })
}

// TestUnregisterLastIVMQueryDropsIndexes: the store maintains its indexes
// while some IVM query evaluates against them. Unregistering one IVM query
// of two keeps them; unregistering the last releases them, and a later
// IVM registration rebuilds from the current store.
func TestUnregisterLastIVMQueryDropsIndexes(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	for _, q := range [][2]string{
		{"core", "Q(y) :- E(x,y), T(y)"},
		{"hard", "Q(x,y) :- S(x), E(x,y), T(y)"},
		{"proj", "Q(x) :- E(x,y), T(y)"},
	} {
		if _, err := ws.Register(q[0], q[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ws.Commit([]Update{Insert("S", 1), Insert("E", 1, 2), Insert("T", 2)}); err != nil {
		t.Fatal(err)
	}
	byX := ws.store.Index("E", 0b01)
	ws.Unregister("proj")
	if _, _, err := ws.Commit([]Update{Insert("E", 1, 3)}); err != nil {
		t.Fatal(err)
	}
	if !bucketHas(byX.Bucket([]Value{1}), []Value{1, 3}) {
		t.Fatal("index not maintained while an IVM query remains")
	}
	ws.Unregister("hard")
	if _, _, err := ws.Commit([]Update{Insert("E", 1, 4)}); err != nil {
		t.Fatal(err)
	}
	if bucketHas(byX.Bucket([]Value{1}), []Value{1, 4}) {
		t.Fatal("index still maintained with no IVM query left")
	}
	h, err := ws.Register("hard", "Q(x,y) :- S(x), E(x,y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.Commit([]Update{Insert("T", 3)}); err != nil {
		t.Fatal(err)
	}
	if got := h.Count(); got != 2 {
		t.Fatalf("re-registered IVM query counts %d, want 2: (1,2) and (1,3)", got)
	}
	if ws.store.Index("E", 0b01) == byX {
		t.Fatal("re-registration reuses the released index")
	}
	if err := ws.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsSeesCoreArenaCorruption: the workspace audit reaches
// into the core engines. A free-chain head past an arena's first chunk,
// masked down into chunk 0 (where it names a live record), must fail it.
func TestCheckInvariantsSeesCoreArenaCorruption(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("q", "Q(y) :- E(x,y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	// 1,100 E tuples under one y give the x-node arena 1,100 records, the
	// last 76 in its second chunk; deleting the newest puts ref 1,100 at
	// the head of the free chain.
	var load []Update
	for x := Value(1); x <= 1100; x++ {
		load = append(load, Insert("E", x, 1))
	}
	if _, _, err := ws.Commit(append(load, Insert("T", 1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.Commit([]Update{Delete("E", 1100, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := ws.CheckInvariants(); err != nil {
		t.Fatalf("healthy workspace: %v", err)
	}
	if moved := h.back.(*coreBackend).e.MaskFreeChainHeads(); moved != 1 {
		t.Fatalf("masked %d free-chain heads, want 1", moved)
	}
	if err := ws.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "free chain") {
		t.Fatalf("CheckInvariants = %v, want the corrupted free chain reported", err)
	} else {
		t.Log(err)
	}
}
