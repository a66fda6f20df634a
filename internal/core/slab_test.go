package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/workload"
)

const deepQuery = "Q(x,y,z) :- R(x,y,z), E(x,y), S(x)"

// arenaTotals sums, over every arena of the engine, the records handed
// out and the chunks held.
func arenaTotals(e *Engine) (records, chunks int) {
	for _, c := range e.comps {
		for si := range c.shards {
			for ni := range c.shards[si].arenas {
				records += int(c.shards[si].arenas[ni].n)
				chunks += len(c.shards[si].arenas[ni].chunks)
			}
		}
	}
	return records, chunks
}

// TestRefWidthGuard forges an arena that has handed out 2³²−2 records and
// takes three more refs: the first is the last one there is, the other two
// panic naming the node instead of wrapping onto ref 0 = nil. (It drives
// fresh, alloc's only source of new refs, because the forged arena has no
// chunks behind its counter.)
func TestRefWidthGuard(t *testing.T) {
	nd := &cnode{name: "x", numTracked: 1}
	nd.layout()
	a := arena{stride: int(nd.stride), n: math.MaxUint32 - 1}
	if r := a.fresh(nd); r != math.MaxUint32 {
		t.Fatalf("fresh = %d, want the last ref %d", r, uint32(math.MaxUint32))
	}
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "node x holds 2^32-1 items") {
					t.Errorf("fresh on a full arena: recovered %q, want a panic naming the node and the limit", msg)
				}
			}()
			t.Errorf("fresh on a full arena returned ref %d", a.fresh(nd))
		}()
	}
	if a.n != math.MaxUint32 {
		t.Errorf("counter = %d after the refused allocations, want it unmoved", a.n)
	}
}

// TestArenaRecyclesUnderChurn fills and drains the structure ten times,
// deleting in a different order each round: every round after the first
// is served from the free chains, so the arenas hand out no new record.
func TestArenaRecyclesUnderChurn(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e, err := newHarness(cq.MustParse(deepQuery), shards)
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
				t.Fatalf("shards=%d round %d, full: %v", shards, round, err)
			}
			rng.Shuffle(len(updates), func(i, j int) { updates[i], updates[j] = updates[j], updates[i] })
			for _, u := range updates {
				if _, err := e.Delete(u.Rel, u.Tuple...); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("shards=%d round %d, drained: %v", shards, round, err)
			}
			records, _ := arenaTotals(e.Engine)
			if round == 1 {
				first = records
			} else if records != first {
				t.Fatalf("shards=%d: %d records handed out after round %d, %d after round 1", shards, records, round, first)
			}
		}
		if first == 0 {
			t.Fatal("the workload created no item")
		}
	}
}

// TestClearAndRebuildDropChunks: Clear releases every chunk, and a Rebuild
// over a small store holds only what that store needs, whatever the engine
// held before.
func TestClearAndRebuildDropChunks(t *testing.T) {
	e := mustEngine(t, deepQuery)
	big := dyndb.New()
	for i := Value(0); i < 3<<arenaShift; i++ {
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
	sh := &e.comps[0].shards[0]
	nodes := e.comps[0].nodes
	root, leaf := &sh.arenas[0], &sh.arenas[2]
	second := root.rec(lo(sh.start)).next()
	for name, corrupt := range map[string]func() (word *uint64, to uint64){
		"own constant":     func() (*uint64, uint64) { return &leaf.rec(1)[nodes[2].offOwn], 999 },
		"parent ref":       func() (*uint64, uint64) { it := leaf.rec(1); return &it[recUp], it[recUp] + 1 },
		"prev not mutual":  func() (*uint64, uint64) { it := root.rec(second); return &it[recLinks], pack(0, it.next()) },
		"list tail":        func() (*uint64, uint64) { return &sh.start, pack(lo(sh.start), second) },
		"inList bit":       func() (*uint64, uint64) { it := root.rec(second); return &it[recUp], it[recUp] &^ inListBit },
		"free chain: live": func() (*uint64, uint64) { it := root.rec(root.free); return &it[recLinks], pack(0, second) },
	} {
		word, to := corrupt()
		was := *word
		*word = to
		if err := e.CheckInvariants(); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
		*word = was
	}
	root.n++
	if err := e.CheckInvariants(); err == nil {
		t.Error("leaked record: corruption not detected")
	}
	root.n--
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("restored structure: %v", err)
	}
}
