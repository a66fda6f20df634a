package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dyncq/internal/dyndb"
	"dyncq/internal/tuplekey"
)

// minSlots is the size of a RefTable's first slot array.
const minSlots = 8

// indexRig is one node's index and arena driven directly, with path
// hashes the test chooses, so it can force home slots and collisions.
type indexRig struct {
	t  *testing.T
	nd cnode
	ar arena
	x  itemIndex
}

func newIndexRig(t *testing.T) *indexRig {
	g := &indexRig{t: t, nd: cnode{name: "v", numTracked: 1}}
	g.nd.layout()
	g.ar = arena{tuplekey.NewArena[uint64](int(g.nd.stride))}
	return g
}

// insert adds the item (own, parent) under path hash h and returns its
// slot; the item must be new.
func (g *indexRig) insert(h uint64, own Value, parent ref) uint32 {
	g.t.Helper()
	g.x.Reserve()
	slot, r := g.x.probe(h, &g.ar, g.nd.offOwn, own, parent)
	if r != 0 {
		g.t.Fatalf("insert (%d, %d): already present as ref %d", own, parent, r)
	}
	g.x.Put(slot, h, uint32(g.ar.alloc(&g.nd, own, parent)))
	return slot
}

// find returns the slot of the item, failing the test if it is missing.
func (g *indexRig) find(h uint64, own Value, parent ref) uint32 {
	g.t.Helper()
	slot, r := g.x.probe(h, &g.ar, g.nd.offOwn, own, parent)
	if r == 0 {
		g.t.Fatalf("item (%d, %d) under hash %#x not found", own, parent, h)
	}
	if it := g.ar.rec(r); Value(it[g.nd.offOwn]) != own || it.parent() != parent {
		g.t.Fatalf("item (%d, %d): probe returned ref %d of another item", own, parent, r)
	}
	return slot
}

// remove frees the item's slot and record, as updateAtom's delete does.
func (g *indexRig) remove(h uint64, own Value, parent ref) {
	g.t.Helper()
	slot := g.find(h, own, parent)
	r := g.x.at(int(slot))
	g.x.Free(slot)
	g.ar.Free(uint32(r))
}

// counts checks the index's live count against its slots and the wanted
// value, and the run invariant: no empty slot lies between an item's home
// slot and its slot.
func (g *indexRig) counts(n int) {
	g.t.Helper()
	full := 0
	for i, w := range g.x.Slots {
		if w == 0 {
			continue
		}
		full++
		if gap := g.x.Gap(i); gap >= 0 {
			g.t.Fatalf("empty slot %d lies between the home of the item in slot %d and its slot", gap, i)
		}
	}
	if full != g.x.Len() || full != n {
		g.t.Fatalf("%d full slots (counted %d), want %d", full, g.x.Len(), n)
	}
}

// TestItemIndexGrowth: the table doubles when live items fill it, and a
// delete shifts the rest of its run back, so live items, not deletes,
// decide the size: churn at a steady size never rehashes. Every item is
// found after each step.
func TestItemIndexGrowth(t *testing.T) {
	g := newIndexRig(t)
	const h = 3 // one home slot for all: one probe run
	for own := Value(0); own < 6; own++ {
		g.insert(h, own, 0)
	}
	if len(g.x.Slots) != minSlots {
		t.Fatalf("%d slots after 6 inserts, want %d", len(g.x.Slots), minSlots)
	}
	g.insert(h, 6, 0) // 7 of 8 would pass 3/4: doubles
	if len(g.x.Slots) != 2*minSlots {
		t.Fatalf("%d slots after 7 inserts, want %d", len(g.x.Slots), 2*minSlots)
	}
	for own := Value(7); own < 12; own++ {
		g.insert(h, own, 0)
	}
	g.counts(12)
	// Slots 3..14 hold the run; dropping its first 8 shifts the other 4
	// back to slots 3..6, one step per delete.
	for own := Value(0); own < 8; own++ {
		g.remove(h, own, 0)
		g.counts(11 - int(own))
	}
	for own := Value(8); own < 12; own++ {
		if slot := g.find(h, own, 0); slot != uint32(h+own-8) {
			t.Errorf("item %d in slot %d after the shifts, want %d", own, slot, h+own-8)
		}
	}
	// A sliding window of fresh items on the same run, oldest out first: 4
	// to 5 live, every insert new. The table keeps its array.
	slots := &g.x.Slots[0]
	live := []Value{8, 9, 10, 11}
	for own := Value(100); own < 200; own++ {
		g.insert(h, own, 0)
		g.remove(h, live[0], 0)
		live = append(live[1:], own)
		g.counts(4)
	}
	if len(g.x.Slots) != 2*minSlots || &g.x.Slots[0] != slots {
		t.Fatalf("%d slots after the churn, want the same %d-slot array", len(g.x.Slots), 2*minSlots)
	}
	for own := Value(196); own < 200; own++ {
		if slot := g.find(h, own, 0); slot < h || slot > h+3 {
			t.Errorf("item %d in slot %d after the churn, want the run 3..6", own, slot)
		}
	}
}

// TestItemIndexWrapsAround: a run that starts in the last slot continues
// at slot 0, for inserts, lookups, and the backward shift of a delete,
// which moves items back across the end of the slots and keeps scanning
// past an item whose home is slot 0.
func TestItemIndexWrapsAround(t *testing.T) {
	g := newIndexRig(t)
	const h = minSlots - 1 // home: the last slot
	for own, want := range []uint32{h, 0, 1} {
		if got := g.insert(h, Value(own), 0); got != want {
			t.Fatalf("item %d in slot %d, want %d", own, got, want)
		}
	}
	if len(g.x.Slots) != minSlots {
		t.Fatalf("%d slots, want %d", len(g.x.Slots), minSlots)
	}
	g.remove(h, 0, 0) // slot 7: items 1 and 2 shift back across the end
	g.counts(2)
	if g.find(h, 1, 0) != h || g.find(h, 2, 0) != 0 || g.x.Slots[1] != 0 {
		t.Fatal("the run did not shift back to slots 7, 0")
	}
	g.remove(h, 2, 0) // slot 0: its successor is empty
	g.counts(1)
	if slot := g.insert(h, 3, 0); slot != 0 {
		t.Errorf("insert took slot %d, want the empty slot 0 that ends the run", slot)
	}
	g.counts(2)
	g.find(h, 1, 0)
	// A run of mixed homes: item 10 (home 7) in slot 7, item 11 (home 0)
	// in slot 0, item 12 (home 7) in slot 1. Freeing slot 7 leaves item
	// 11, whose home is in (7, 0], and moves item 12 past it, back across
	// the end into slot 7.
	m := newIndexRig(t)
	for _, it := range []struct {
		h        uint64
		own      Value
		wantSlot uint32
	}{{h, 10, h}, {0, 11, 0}, {h, 12, 1}} {
		if got := m.insert(it.h, it.own, 0); got != it.wantSlot {
			t.Fatalf("item %d in slot %d, want %d", it.own, got, it.wantSlot)
		}
	}
	m.remove(h, 10, 0)
	m.counts(2)
	if m.find(0, 11, 0) != 0 || m.find(h, 12, 0) != h || m.x.Slots[1] != 0 {
		t.Errorf("after the free of slot 7: item 11 in slot %d, item 12 in slot %d, want 0 and 7", m.find(0, 11, 0), m.find(h, 12, 0))
	}
}

// TestItemIndexFreeBeforeEmpty: freeing a slot whose successor is empty
// leaves the slot empty and moves nothing; freeing one whose successor is
// full moves that item back and empties the end of the run.
func TestItemIndexFreeBeforeEmpty(t *testing.T) {
	g := newIndexRig(t)
	const h = 2
	for own := Value(0); own < 3; own++ {
		g.insert(h, own, 0) // slots 2, 3, 4
	}
	g.remove(h, 2, 0) // slot 4, successor 5 empty
	g.counts(2)
	if g.x.Slots[4] != 0 || g.find(h, 0, 0) != 2 || g.find(h, 1, 0) != 3 {
		t.Errorf("slot 4 holds %#x after a free before an empty slot, want empty and the run unmoved", g.x.Slots[4])
	}
	g.remove(h, 0, 0) // slot 2, successor 3 full
	g.counts(1)
	if g.find(h, 1, 0) != 2 || g.x.Slots[3] != 0 {
		t.Errorf("after a free before a full slot: item 1 in slot %d, slot 3 holds %#x, want slot 2 and empty", g.find(h, 1, 0), g.x.Slots[3])
	}
}

// TestItemIndexHashCollisions: items whose hashes agree in the low 32
// bits — all the index keeps — are told apart by the record's own
// constant and parent ref, whatever their other hash bits.
func TestItemIndexHashCollisions(t *testing.T) {
	g := newIndexRig(t)
	h1 := uint64(0x5a<<57 | 0x1234)
	h2 := h1 | 1<<40 // same low bits
	if uint32(h1) != uint32(h2) {
		t.Fatal("the hashes must collide in everything the index keeps")
	}
	items := []struct {
		h      uint64
		own    Value
		parent ref
	}{{h1, 7, 1}, {h2, 8, 1}, {h1, 7, 2}, {h2, 7, 3}}
	for _, it := range items {
		g.insert(it.h, it.own, it.parent)
	}
	for _, it := range items {
		g.find(it.h, it.own, it.parent)
		g.find(it.h^1<<40, it.own, it.parent) // the bits the index drops do not matter
	}
	for _, miss := range []struct {
		own    Value
		parent ref
	}{{8, 2}, {9, 1}, {7, 4}} {
		if _, r := g.x.probe(h1, &g.ar, g.nd.offOwn, miss.own, miss.parent); r != 0 {
			t.Errorf("(%d, %d) found as ref %d, want a miss", miss.own, miss.parent, r)
		}
	}
	g.remove(h1, 7, 1)
	g.find(h2, 8, 1)
	g.find(h1, 7, 2)
	g.find(h2, 7, 3)
}

// TestCheckInvariantsSeesIndexCorruption breaks an index slot or a parent
// ref, one at a time, and expects CheckInvariants to notice each — the
// index keeps no key, so the audit re-derives every path from the
// records.
func TestCheckInvariantsSeesIndexCorruption(t *testing.T) {
	e := mustEngine(t, deepQuery)
	for _, x := range []Value{1, 2, 3} {
		e.Insert("S", x)
		e.Insert("E", x, 10)
		e.Insert("R", x, 10, 100)
	}
	e.Insert("R", 5, 6, 7) // items x=5, y=(5,6), z=(5,6,7); y and x unfit
	e.Insert("S", 4)
	e.Delete("S", 4) // one record on the root arena's free chain
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c := e.comps[0]
	mid := &c.index[1]
	y56 := c.lookup(1, []Value{5, 6})
	x1, y110 := c.lookup(0, []Value{1}), c.lookup(1, []Value{1, 10})
	if y56 == 0 || x1 == 0 || y110 == 0 || c.arenas[1].rec(y56).inList() {
		t.Fatal("the unfit item y=(5,6), x=1 or y=(1,10) is missing")
	}
	slotOf := func(x *itemIndex, r ref) int {
		for i := range x.Slots {
			if x.at(i) == r {
				return i
			}
		}
		t.Fatalf("ref %d is in no slot", r)
		return -1
	}
	ys, empty := slotOf(mid, y56), slotOf(mid, 0)
	up := &c.arenas[1].rec(y56)[recUp]
	for name, corrupt := range map[string]func(){
		// y=(5,6) is unfit, so in no list: only the index audit sees these.
		"wrong parent ref":         func() { *up = *up&^hashBits | uint64(x1) },
		"parent on the free chain": func() { *up = *up&^hashBits | uint64(c.arenas[0].FreeHead()) },
		"hash bits":                func() { mid.Slots[ys] ^= 1 << 45 },
		"slot names another item":  func() { mid.Slots[ys] = mid.Slots[ys]&^hashBits | uint64(y110) },
		"live count":               func() { mid.Put(uint32(empty), 0, 1); mid.Slots[empty] = 0 },
		"gap in a probe run": func() {
			// An empty slot e+1 after an empty slot e: any walk from
			// another home to e+1 passes e.
			home := int(mid.Slots[ys]>>32) & (len(mid.Slots) - 1)
			for e := range mid.Slots {
				if f := (e + 1) & (len(mid.Slots) - 1); mid.Slots[e] == 0 && mid.Slots[f] == 0 && f != home {
					mid.Slots[f], mid.Slots[ys] = mid.Slots[ys], 0
					return
				}
			}
			t.Fatal("no two adjacent empty slots to move y=(5,6) to")
		},
		"indexed twice": func() {
			mid.Put(uint32(empty), mid.Slots[ys]>>32, uint32(y56))
		},
	} {
		saved, was := *mid, *up
		saved.Slots = slices.Clone(mid.Slots)
		corrupt()
		if err := e.CheckInvariants(); err == nil {
			t.Errorf("%s: corruption not detected", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
		*mid, *up = saved, was
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("restored structure: %v", err)
	}
}

// fuzzDomain is the values an item-index program draws from: few enough
// that paths collide and churn, with the int64 extremes among them.
var fuzzDomain = [...]Value{0, 1, 2, -1, math.MaxInt64, math.MinInt64}

// FuzzItemIndex decodes bytes into inserts and deletes of R(x,y,z),
// E(x,y) and S(x) over fuzzDomain and applies them one at a time to the
// deep-path engine (x above y above z). After each it checks that every
// node's index holds exactly the paths a map model of the database
// implies, each found by a top-down probe, that Contains agrees with the
// model on every R tuple, and CheckInvariants.
func FuzzItemIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(48))
	for _, n := range []int{40, 200, 600} {
		prog := make([]byte, n)
		rng.Read(prog)
		f.Add(prog)
	}
	// Fill every (x,y) under x=0, then drain it in the order it came.
	var fill, drain []byte
	for y := byte(0); y < 6; y++ {
		fill = append(fill, 0, 0, y, 1)                       // +R(0,y,1)
		drain = append(drain, 1, 0, y, 1)                     // -R(0,y,1)
		fill = append(fill, 2, 0, y)                          // +E(0,y)
		drain = append(drain, 3, 0, y)                        // -E(0,y)
		fill, drain = append(fill, 4, 0), append(drain, 5, 0) // ±S(0)
	}
	f.Add(append(fill, drain...))
	f.Fuzz(func(t *testing.T, prog []byte) {
		e := mustEngine(t, deepQuery)
		arity := map[string]int{"R": 3, "E": 2, "S": 1}
		model := map[string]map[[3]Value]bool{"R": {}, "E": {}, "S": {}}
		for steps := 0; len(prog) > 0 && steps < 256; steps++ {
			op := prog[0]
			rel := [...]string{"R", "E", "S"}[op>>1%3]
			prog = prog[1:]
			var key [3]Value
			for i := 0; i < arity[rel]; i++ {
				if len(prog) > 0 {
					key[i] = fuzzDomain[int(prog[0])%len(fuzzDomain)]
					prog = prog[1:]
				}
			}
			u := dyndb.Insert(rel, key[:arity[rel]]...)
			if op&1 == 1 {
				u.Op = dyndb.OpDelete
			}
			if _, err := e.Apply(u); err != nil {
				t.Fatal(err)
			}
			model[rel][key] = u.Op == dyndb.OpInsert
			checkIndexModel(t, e, model)
		}
	})
}

// checkIndexModel compares the engine's indexes with the paths the model
// database implies: x for every tuple, (x,y) for every R and E tuple,
// (x,y,z) for every R tuple.
func checkIndexModel(t *testing.T, e *harness, model map[string]map[[3]Value]bool) {
	t.Helper()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	paths := make([]map[[3]Value]bool, 3)
	for i := range paths {
		paths[i] = map[[3]Value]bool{}
	}
	for rel, tuples := range model {
		depth := map[string]int{"R": 3, "E": 2, "S": 1}[rel]
		for key, present := range tuples {
			for d := 0; present && d < depth; d++ {
				var p [3]Value
				copy(p[:d+1], key[:d+1])
				paths[d][p] = true
			}
		}
	}
	c := e.comps[0]
	for d, want := range paths {
		ni := int32(-1)
		for i := range c.nodes {
			if int(c.nodes[i].depth) == d {
				ni = int32(i)
			}
		}
		if c.index[ni].Len() != len(want) {
			t.Fatalf("node %s indexes %d items, the model has %d paths", c.nodes[ni].name, c.index[ni].Len(), len(want))
		}
		for p := range want {
			if c.lookup(ni, p[:d+1]) == 0 {
				t.Fatalf("path %v of node %s not found", p[:d+1], c.nodes[ni].name)
			}
		}
	}
	for key, present := range model["R"] {
		want := present && model["E"][[3]Value{key[0], key[1]}] && model["S"][[3]Value{key[0]}]
		if got := e.Contains(key[:]); got != want {
			t.Fatalf("Contains(%v) = %v, want %v", key, got, want)
		}
	}
}
