package core

import (
	"math/rand"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/tuplekey"
	"dyncq/internal/workload"
)

const deepQuery = "Q(x,y,z) :- R(x,y,z), E(x,y), S(x)"

// arenaTotals sums, over every arena of the engine, the records handed
// out and the chunks held.
func arenaTotals(e *Engine) (records, chunks int) {
	for _, c := range e.comps {
		for ni := range c.arenas {
			records += int(c.arenas[ni].N())
			chunks += c.arenas[ni].Chunks()
		}
	}
	return records, chunks
}

// TestArenaRecyclesUnderChurn fills and drains the structure ten times,
// deleting in a different order each round: every round after the first
// is served from the free chains, so the arenas hand out no new record.
func TestArenaRecyclesUnderChurn(t *testing.T) {
	e, err := newHarness(cq.MustParse(deepQuery))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	updates := workload.RandomDatabase(rng, e.Query().Schema(), 12, 600).Updates()
	var first int
	for round := 1; round <= 10; round++ {
		for _, u := range updates {
			if _, err := e.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("round %d, full: %v", round, err)
		}
		rng.Shuffle(len(updates), func(i, j int) { updates[i], updates[j] = updates[j], updates[i] })
		for _, u := range updates {
			if _, err := e.Delete(u.Rel, u.Tuple...); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("round %d, drained: %v", round, err)
		}
		records, _ := arenaTotals(e.Engine)
		if round == 1 {
			first = records
		} else if records != first {
			t.Fatalf("%d records handed out after round %d, %d after round 1", records, round, first)
		}
	}
	if first == 0 {
		t.Fatal("the workload created no item")
	}
}

// TestClearAndRebuildDropChunks: Clear releases every chunk, and a Rebuild
// over a small store holds only what that store needs, whatever the engine
// held before.
func TestClearAndRebuildDropChunks(t *testing.T) {
	e := mustEngine(t, deepQuery)
	big := dyndb.New()
	for i := Value(0); i < 3*tuplekey.ArenaChunk; i++ {
		big.Insert("R", i, i, i)
		big.Insert("E", i, i)
		big.Insert("S", i)
	}
	if err := e.Load(big); err != nil {
		t.Fatal(err)
	}
	if _, chunks := arenaTotals(e.Engine); chunks < 9 {
		t.Fatalf("%d chunks after loading 3 chunks' worth of items at each of 3 nodes", chunks)
	}
	e.Clear()
	if records, chunks := arenaTotals(e.Engine); records != 0 || chunks != 0 {
		t.Errorf("after Clear: %d records, %d chunks, want none", records, chunks)
	}
	small := dyndb.New()
	small.Insert("R", 1, 2, 3)
	small.Insert("E", 1, 2)
	small.Insert("S", 1)
	if err := e.Load(big); err != nil {
		t.Fatal(err)
	}
	if err := e.Load(small); err != nil {
		t.Fatal(err)
	}
	if records, chunks := arenaTotals(e.Engine); records != 3 || chunks != 3 {
		t.Errorf("after Rebuild over a 3-item store: %d records, %d chunks, want 3 and 3", records, chunks)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if e.Count() != 1 {
		t.Errorf("count = %d, want 1", e.Count())
	}
}

// TestCheckInvariantsSeesArenaCorruption breaks, one at a time, what the
// item struct used to make true by construction, and expects
// CheckInvariants to notice each.
func TestCheckInvariantsSeesArenaCorruption(t *testing.T) {
	e := mustEngine(t, deepQuery)
	for _, x := range []Value{1, 2, 3} {
		e.Insert("S", x)
		for _, y := range []Value{10, 20} {
			e.Insert("E", x, y)
			e.Insert("R", x, y, 100)
			e.Insert("R", x, y, 200)
		}
	}
	e.Insert("S", 4)
	e.Delete("S", 4) // one record on the root arena's free chain
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c := e.comps[0]
	nodes := c.nodes
	root, leaf := &c.arenas[0], &c.arenas[2]
	second := root.rec(lo(c.start)).next()
	for name, corrupt := range map[string]func() (word *uint64, to uint64){
		"own constant":     func() (*uint64, uint64) { return &leaf.rec(1)[nodes[2].offOwn], 999 },
		"parent ref":       func() (*uint64, uint64) { it := leaf.rec(1); return &it[recUp], it[recUp] + 1 },
		"prev not mutual":  func() (*uint64, uint64) { it := root.rec(second); return &it[recLinks], pack(0, it.next()) },
		"list tail":        func() (*uint64, uint64) { return &c.start, pack(lo(c.start), second) },
		"inList bit":       func() (*uint64, uint64) { it := root.rec(second); return &it[recUp], it[recUp] &^ inListBit },
		"free chain: live": func() (*uint64, uint64) { it := root.rec(ref(root.FreeHead())); return &it[recLinks], uint64(second) },
	} {
		word, to := corrupt()
		was := *word
		*word = to
		if err := e.CheckInvariants(); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
		*word = was
	}
	leaked := root.Alloc() // off the free chain, in no index
	if err := e.CheckInvariants(); err == nil {
		t.Error("leaked record: corruption not detected")
	}
	root.Free(leaked)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("restored structure: %v", err)
	}
}
