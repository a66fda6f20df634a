package dyncq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/workload"
)

// countingBackend counts the result walks the workspace asks a backend
// for.
type countingBackend struct {
	queryBackend
	walks *int
}

func (c countingBackend) Enumerate(yield func([]Value) bool) {
	*c.walks++
	c.queryBackend.Enumerate(yield)
}

// TestCaptureWalksNoResult: the diff is gone, not moved. Starting a
// capture on a core or ivm handle enumerates nothing, and neither does
// producing the DeltaEvent of a one-update or a batch Commit — the
// backends emit it. Only a Load, which resets every structure, walks the
// result (once before, once after), and the replayed events still
// reconstruct it.
func TestCaptureWalksNoResult(t *testing.T) {
	for _, force := range []Strategy{StrategyCore, StrategyIVM} {
		t.Run(force.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			ws := NewWorkspace(WorkspaceOptions{})
			q := cq.MustParse("Q(x,y) :- E(x,y), T(y)")
			h, err := ws.RegisterQuery("q", q, Options{Force: force})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ws.Commit(workload.RandomStream(rng, q.Schema(), 15, 200, 0.2)); err != nil {
				t.Fatal(err)
			}
			walks := 0
			h.back = countingBackend{h.back, &walks}
			replica := newReplayOracle()
			for _, tup := range h.Tuples() {
				replica.tuples[fmt.Sprint(tup)] = true
			}
			walks = 0
			if err := ws.CaptureDeltas("q", func(ev DeltaEvent) { replica.apply(t, ev) }); err != nil {
				t.Fatal(err)
			}
			stream := workload.RandomStream(rng, q.Schema(), 15, 300, 0.4)
			for _, u := range stream[:100] {
				if _, _, err := ws.Commit([]Update{u}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 100; i < len(stream); i += 25 {
				if _, _, err := ws.Commit(stream[i:min(i+25, len(stream))]); err != nil {
					t.Fatal(err)
				}
			}
			if walks != 0 {
				t.Fatalf("capturing %d commits enumerated the result %d times", ws.Version(), walks)
			}
			replica.matches(t, h.Tuples(), "after stream")
			walks = 0
			if err := ws.Load(workload.RandomDatabase(rng, q.Schema(), 15, 60)); err != nil {
				t.Fatal(err)
			}
			if walks != 2 {
				t.Fatalf("Load walked the result %d times, want one image before and one diff after", walks)
			}
			replica.matches(t, h.Tuples(), "after load")

			// The same without a capture but with a reader pinning every
			// version: the cached snapshot arms the emission, so keeping it
			// current walks nothing either; a Load, which no backend emits
			// a delta for and nobody here captures, re-materialises it by
			// exactly one walk.
			ws.StopDeltaCapture("q")
			h.Snapshot()
			walks = 0
			stream = workload.RandomStream(rng, q.Schema(), 15, 200, 0.4)
			for _, u := range stream[:100] {
				if _, _, err := ws.Commit([]Update{u}); err != nil {
					t.Fatal(err)
				}
				h.Snapshot()
			}
			for i := 100; i < len(stream); i += 25 {
				if _, _, err := ws.Commit(stream[i:min(i+25, len(stream))]); err != nil {
					t.Fatal(err)
				}
				h.Snapshot()
			}
			if walks != 0 {
				t.Fatalf("advancing a pinned snapshot over %d commits enumerated the result %d times", len(stream[:100])+4, walks)
			}
			rowsIdentical(t, h.Snapshot().Tuples(), sortedTuples(h), "pinned after stream")
			walks = 0
			if err := ws.Load(workload.RandomDatabase(rng, q.Schema(), 15, 60)); err != nil {
				t.Fatal(err)
			}
			if walks != 1 {
				t.Fatalf("Load walked the result %d times for a pinned, uncaptured query, want the one rebuild", walks)
			}
			rowsIdentical(t, h.Snapshot().Tuples(), sortedTuples(h), "pinned after load")
		})
	}
}

// sortedTuples returns the handle's live result in lexicographic order —
// what a snapshot of it must list.
func sortedTuples(h *Handle) [][]Value {
	rows := h.Tuples()
	sortTuplesLex(rows)
	return rows
}

// TestApplyAllocationFree: a single-update Commit is a commit of one
// through the one commit pipeline, and the store keeps each tuple in a
// record its relation recycles, so on a core-routed workspace an
// insert/delete pair, each a Commit of a one-update slice literal,
// allocates nothing at all. Nor does it beside an ivm-routed query, whose
// single update runs the relation-phased store schedule and a delta join:
// the E index's list for the key that empties and refills takes its block
// back from the index's free chain (3 allocations when a bucket was a
// table of its own). It counts every allocation under Commit over all the
// pairs (commitAllocs), so one allocation in a thousand pairs fails it.
func TestApplyAllocationFree(t *testing.T) {
	for _, set := range applySets {
		t.Run(set.name, func(t *testing.T) {
			ws, pair := applyPair(t, set.queries)
			pair() // warm the arena free chains, the map slots and the grouping
			const pairs = 1000
			n, stacks := commitAllocs(func() {
				for range pairs {
					pair()
				}
			})
			t.Logf("%d single-update Commit insert/delete pairs: %d allocations under Commit", pairs, n)
			if n != 0 {
				t.Fatalf("%d single-update Commit insert/delete pairs allocated %d times, want 0:\n%s", pairs, n, strings.Join(stacks, "\n"))
			}
			if err := ws.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// applySets are the query sets TestApplyAllocationFree and BenchmarkApply
// run a single-update pair on: core-routed queries only, and the
// paper's hard query ϕS-E-T (ivm-routed, relation-phased) beside a core
// query.
var applySets = []struct {
	name    string
	queries map[string]string
}{
	{"core", map[string]string{"feed": "Q(x,y) :- E(x,y), T(y)", "star": "Q(y) :- E(x,y), T(y)"}},
	{"ivm", map[string]string{"hard": "Q(x,y) :- S(x), E(x,y), T(y)", "star": "Q(y) :- E(x,y), T(y)"}},
}

// applyPair registers the queries on a workspace, fills the store through
// batches, and returns the workspace and a closure that commits E(5000,7)
// and deletes it again, one update per Commit: a pair that changes the
// store, and on ϕS-E-T adds and removes one result tuple.
func applyPair(tb testing.TB, queries map[string]string) (*Workspace, func()) {
	ws := NewWorkspace(WorkspaceOptions{})
	for name, text := range queries {
		h, err := ws.Register(name, text)
		if err != nil {
			tb.Fatal(err)
		}
		want := StrategyCore
		if name == "hard" {
			want = StrategyIVM
		}
		if h.Strategy() != want {
			tb.Fatalf("%s routed to %v, want %v", name, h.Strategy(), want)
		}
	}
	for i := 0; i < 2000; i++ {
		if _, _, err := ws.Commit([]Update{dyndb.Insert("E", Value(i), Value(i%50)), dyndb.Insert("T", Value(i%50)), dyndb.Insert("S", Value(i%100))}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, _, err := ws.Commit([]Update{Insert("S", 5000)}); err != nil {
		tb.Fatal(err)
	}
	ins, del := dyndb.Insert("E", 5000, 7), dyndb.Delete("E", 5000, 7)
	return ws, func() {
		if n, _, err := ws.Commit([]Update{ins}); err != nil || n != 1 {
			tb.Fatalf("insert: applied=%d err=%v", n, err)
		}
		if n, _, err := ws.Commit([]Update{del}); err != nil || n != 1 {
			tb.Fatalf("delete: applied=%d err=%v", n, err)
		}
	}
}

// BenchmarkApply records what a single-update Commit costs through the
// batch pipeline: a warmed insert/delete pair per op, on the core set and
// the ivm set of TestApplyAllocationFree.
func BenchmarkApply(b *testing.B) {
	for _, set := range applySets {
		b.Run(set.name, func(b *testing.B) {
			_, pair := applyPair(b, set.queries)
			pair()
			b.ReportAllocs()
			for b.Loop() {
				pair()
			}
		})
	}
}

// TestCommitAllocationFree: a warmed core-routed Commit with no subscriber
// allocates nothing, at 64 updates as at 512: the pipeline's bookkeeping
// lives in workspace-owned scratch. Nor does an ivm-routed commit
// allocate, whose delta joins allocate nothing per valuation and nothing
// per join (ivmCommitAllocs). Both count every allocation under Commit
// over 200 insert/delete cycles (commitAllocs), so one allocation in 400
// commits fails the test.
// (Before the store kept tuples inline and the coalescer kept its slot
// tables, a commit paid one tuple copy per insert and up to one table,
// grown by rehash, per relation.)
func TestCommitAllocationFree(t *testing.T) {
	allocsAt := func(batch int) (int64, []string) {
		ws := NewWorkspace(WorkspaceOptions{})
		for name, text := range map[string]string{"star": "Q(y) :- E(x,y), T(y)", "deep": "Q(x,y,z) :- R(x,y,z), E(x,y), S(x)"} {
			h, err := ws.Register(name, text)
			if err != nil {
				t.Fatal(err)
			}
			if h.Strategy() != StrategyCore {
				t.Fatalf("%s routed to %v, want core", name, h.Strategy())
			}
		}
		db := dyndb.New()
		for i := 0; i < 4000; i++ {
			x, y := Value(i%1000), Value(i%50)
			db.Insert("E", x, y)
			db.Insert("R", x, y, Value(i%7))
			db.Insert("S", x)
			db.Insert("T", y)
		}
		if err := ws.Load(db); err != nil {
			t.Fatal(err)
		}
		// The batch touches all four relations with fresh tuples over keys
		// the store already holds; its inverse restores the store.
		var ins, del []Update
		for j := 0; len(ins) < batch; j++ {
			x, y := Value(j%1000), Value(1000+j)
			for _, u := range []Update{dyndb.Insert("E", x, y), dyndb.Insert("R", x, y, 1), dyndb.Insert("T", y), dyndb.Insert("S", Value(5000+j))} {
				ins, del = append(ins, u), append(del, Update{Op: dyndb.OpDelete, Rel: u.Rel, Tuple: u.Tuple})
			}
		}
		ins, del = ins[:batch], del[:batch]
		cycle := func() {
			for _, b := range [][]Update{ins, del} {
				if n, _, err := ws.Commit(b); err != nil || n != batch {
					t.Fatalf("commit netted %d of %d (err %v)", n, batch, err)
				}
			}
		}
		cycle() // warm the arena free chains, the table slots and the coalescer
		return commitAllocs(func() {
			for range allocCycles {
				cycle()
			}
		})
	}
	for _, c := range []struct {
		name string
		run  func(batch int) (int64, []string)
	}{
		{"core-routed", allocsAt},
		{"ivm-routed", func(batch int) (int64, []string) { return ivmCommitAllocs(t, batch) }},
	} {
		for _, batch := range []int{64, 512} {
			n, stacks := c.run(batch)
			t.Logf("%s: %d commits of %d updates: %d allocations under Commit", c.name, 2*allocCycles, batch, n)
			if n != 0 {
				t.Errorf("%d %s commits of %d updates allocated %d times, want 0:\n%s", 2*allocCycles, c.name, batch, n, strings.Join(stacks, "\n"))
			}
		}
	}
}

// allocCycles is the number of insert/delete cycles, two commits each,
// over which TestCommitAllocationFree counts allocations.
const allocCycles = 200

// ivmCommitAllocs counts, with the stacks that made them, the allocations
// under Commit of allocCycles warmed insert/delete cycles of batch updates
// on the hard query ϕS-E-T, ivm-routed, below the rebuild crossover, so
// every update is a delta join. Half the batch inserts S tuples for keys
// E holds (four valuations each), half E tuples between keys both E
// indexes already hold, so the joins walk lists that exist (lists that
// empty and refill are TestChurnAllocationFree's -blocks and -refill
// shapes), and the inverse batch restores the store.
func ivmCommitAllocs(t *testing.T, batch int) (int64, []string) {
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("hard", "Q(x,y) :- S(x), E(x,y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	if h.Strategy() != StrategyIVM {
		t.Fatalf("hard routed to %v, want ivm", h.Strategy())
	}
	db := dyndb.New()
	for x := Value(0); x < 1000; x++ {
		for k := Value(0); k < 4; k++ {
			db.Insert("E", x, (x*7+k)%50)
		}
		if x%2 == 0 {
			db.Insert("S", x)
		}
	}
	for y := Value(0); y < 50; y += 2 {
		db.Insert("T", y)
	}
	if err := ws.Load(db); err != nil {
		t.Fatal(err)
	}
	var ins, del []Update
	for j := Value(0); len(ins) < batch; j++ {
		x := 2*j + 1
		for _, u := range []Update{dyndb.Insert("S", x), dyndb.Insert("E", x, (x*7+4)%50)} {
			ins, del = append(ins, u), append(del, Update{Op: dyndb.OpDelete, Rel: u.Rel, Tuple: u.Tuple})
		}
	}
	cycle := func() {
		for _, b := range [][]Update{ins, del} {
			if n, _, err := ws.Commit(b); err != nil || n != batch {
				t.Fatalf("commit netted %d of %d (err %v)", n, batch, err)
			}
		}
	}
	cycle() // warm the index lists, the result table and the coalescer
	return commitAllocs(func() {
		for range allocCycles {
			cycle()
		}
	})
}

// TestChurnAllocationFree: a store under steady churn — every commit
// deletes the oldest tuples and inserts as many never seen before, so no
// relation changes size — allocates nothing once warm, on the core set
// and on the ivm-routed hard query alike. Unlike TestCommitAllocationFree,
// whose inverse batches put the same tuples back, every insert lands in a
// fresh slot of the store's tables, the core engine's A_v indexes, the
// ivm result and the eval index buckets, so a delete that left a
// tombstone would fill each table until it rehashed. Three shapes:
// spread, where every x and y keeps several E tuples at all times; blocks,
// where E's y values come in blocks of 1,000 consecutive tuples, so the
// y-keyed index lists empty as the window slides past a block and new
// ones fill; and refill, where E and R are emptied to zero tuples and
// filled again, over and over, so every list and every item goes and
// comes back. The window is long (churnCommits) and counts every
// allocation under Commit over all of it (commitAllocs), not a per-run
// mean rounded down to an integer.
func TestChurnAllocationFree(t *testing.T) {
	for _, shape := range []struct {
		name    string
		tuple   func(i int) []Value
		batches func(tuple func(i int) []Value) [][]Update
		warm    int  // commits before the count: one full turnover of E and R
		empties bool // E and R hold no tuple after the first warm/2 commits
	}{
		{"", churnTuple, churnBatches, churnWindow / churnPerRel, false},
		{"-blocks", blockTuple, churnBatches, churnWindow / churnPerRel, false},
		{"-refill", churnTuple, refillBatches, 2 * churnWindow / churnPerRel, true},
	} {
		batches := shape.batches(shape.tuple)
		for _, set := range []struct {
			name    string
			queries map[string]string
		}{
			{"core", map[string]string{"star": "Q(y) :- E(x,y), T(y)", "deep": "Q(x,y,z) :- R(x,y,z), E(x,y), S(x)"}},
			{"ivm", map[string]string{"hard": "Q(x,y) :- S(x), E(x,y), T(y)"}},
		} {
			t.Run(set.name+shape.name, func(t *testing.T) {
				ws := NewWorkspace(WorkspaceOptions{})
				for name, text := range set.queries {
					h, err := ws.Register(name, text)
					if err != nil {
						t.Fatal(err)
					}
					if want := map[bool]Strategy{true: StrategyIVM, false: StrategyCore}[name == "hard"]; h.Strategy() != want {
						t.Fatalf("%s routed to %v, want %v", name, h.Strategy(), want)
					}
				}
				db := dyndb.New()
				for x := Value(0); x < churnXs; x++ {
					db.Insert("S", x)
				}
				for y := Value(0); y < churnYs; y++ {
					db.Insert("T", y)
				}
				for i := 0; i < churnWindow; i++ {
					db.Insert("E", shape.tuple(i)[:2]...)
					db.Insert("R", shape.tuple(i)...)
				}
				if err := ws.Load(db); err != nil {
					t.Fatal(err)
				}
				commit := func(batch []Update) {
					if n, _, err := ws.Commit(batch); err != nil || n != len(batch) {
						t.Fatalf("commit netted %d of %d (err %v)", n, len(batch), err)
					}
				}
				warm := shape.warm
				for i, b := range batches[:warm] {
					commit(b)
					if shape.empties && i == warm/2-1 && ws.store.Relation("E").Len()+ws.store.Relation("R").Len() != 0 {
						t.Fatal("the refill shape's drain left tuples in E or R")
					}
				}
				n, stacks := commitAllocs(func() {
					for _, b := range batches[warm:] {
						commit(b)
					}
				})
				t.Logf("%d churn commits of %d updates: %d allocations under Commit", len(batches)-warm, len(batches[0]), n)
				if n != 0 {
					t.Errorf("%d churn commits allocated %d times, want 0: a table re-allocates under churn:\n%s",
						len(batches)-warm, n, strings.Join(stacks, "\n"))
				}
				if err := ws.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// The churn store: S over churnXs keys, T over churnYs, and a window of
// churnWindow E and R tuples, each commit sliding it on by churnPerRel.
const (
	churnXs, churnYs = 1000, 200
	churnWindow      = 8192
	churnPerRel      = 16
	churnCommits     = 5000
)

// churnTuple is the i-th R tuple of the spread shape, (x, y, i); its
// first two values are the i-th E tuple. Its x and y are keys S and T
// hold, every (x, y) pair is new for i below churnXs·churnYs, and any
// churnWindow consecutive tuples give every x and every y several E
// tuples, so sliding the window never empties an eval index bucket or
// creates one.
func churnTuple(i int) []Value {
	x := i % churnXs
	return []Value{Value(x), Value((x + i/churnXs) % churnYs), Value(i)}
}

// blockTuple is the i-th R tuple of the blocks shape: as churnTuple, but
// y = i/1000, so the window holds about nine y values and sliding it
// empties one y's index buckets and fills a new y's every 1,000 tuples.
func blockTuple(i int) []Value {
	return []Value{Value(i % churnXs), Value(i / 1000 % churnYs), Value(i)}
}

// churnBatches pre-builds the warm-up and measured commits over the
// shape's tuples: the k-th deletes E and R tuples k·churnPerRel onwards,
// the oldest live, and inserts as many past the window's end.
func churnBatches(tuple func(i int) []Value) [][]Update {
	n := churnWindow/churnPerRel + churnCommits
	all := make([]Update, 0, 4*churnPerRel*n)
	batches := make([][]Update, n)
	for k := range batches {
		start := len(all)
		for j := 0; j < churnPerRel; j++ {
			old, fresh := tuple(k*churnPerRel+j), tuple(churnWindow+k*churnPerRel+j)
			all = append(all, dyndb.Delete("E", old[:2]...), dyndb.Delete("R", old...),
				dyndb.Insert("E", fresh[:2]...), dyndb.Insert("R", fresh...))
		}
		batches[k] = all[start:len(all):len(all)]
	}
	return batches
}

// refillBatches pre-builds the warm-up and measured commits of the
// refill shape: drain E and R of the window's tuples, churnPerRel of each
// a commit, oldest first, then insert them back the same way, and again.
func refillBatches(tuple func(i int) []Value) [][]Update {
	steps := churnWindow / churnPerRel
	batches := make([][]Update, 0, 2*steps+churnCommits)
	for k := 0; len(batches) < cap(batches); k++ {
		op, at := dyndb.OpDelete, k%(2*steps)
		if at >= steps {
			op, at = dyndb.OpInsert, at-steps
		}
		b := make([]Update, 0, 2*churnPerRel)
		for j := 0; j < churnPerRel; j++ {
			t := tuple(at*churnPerRel + j)
			b = append(b, Update{Op: op, Rel: "E", Tuple: t[:2]}, Update{Op: op, Rel: "R", Tuple: t})
		}
		batches = append(batches, b)
	}
	return batches
}

// TestContains: the constant-time test agrees with the enumerated result
// on every strategy — members, near misses, the wrong arity, and the
// empty tuple of a Boolean query.
func TestContains(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := cq.MustParse("Q(x,y) :- E(x,y), T(y)")
	_, handles := soloPerStrategy(t, q, StrategyCore, StrategyIVM)
	stream := workload.RandomStream(rng, q.Schema(), 8, 150, 0.3)
	for _, h := range handles {
		if _, _, err := h.ws.Commit(stream); err != nil {
			t.Fatal(err)
		}
		in := make(map[string]bool)
		for _, tup := range h.Tuples() {
			in[fmt.Sprint(tup)] = true
		}
		if len(in) == 0 {
			t.Fatal("empty result; workload too sparse for the test")
		}
		for x := Value(0); x < 9; x++ {
			for y := Value(0); y < 9; y++ {
				if got := h.Contains([]Value{x, y}); got != in[fmt.Sprint([]Value{x, y})] {
					t.Fatalf("%s: Contains(%d,%d) = %v, enumerated membership %v", h.Strategy(), x, y, got, !got)
				}
			}
		}
		if h.Contains([]Value{1}) || h.Contains([]Value{1, 2, 3}) || h.Contains(nil) {
			t.Fatalf("%s: Contains accepted a tuple of the wrong arity", h.Strategy())
		}
	}
	_, booleans := soloPerStrategy(t, cq.MustParse("Q() :- E(x,y), T(y)"), StrategyCore, StrategyIVM)
	for _, h := range booleans {
		if h.Contains(nil) {
			t.Fatalf("%s: empty database contains the empty tuple", h.Strategy())
		}
		if _, _, err := h.ws.Commit([]Update{dyndb.Insert("E", 1, 2), dyndb.Insert("T", 2)}); err != nil {
			t.Fatal(err)
		}
		if !h.Contains(nil) || h.Contains([]Value{1}) {
			t.Fatalf("%s: Boolean Contains disagrees with Answer %v", h.Strategy(), h.Answer())
		}
	}
}

// TestCommitReturnsItsVersion: Commit reports the version it produced —
// for one update as for a batch, both through the one pipeline — and a
// commit that changes nothing reports the version it left in place.
func TestCommitReturnsItsVersion(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	if _, err := ws.Register("q", "Q(x,y) :- E(x,y)"); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		updates     []Update
		applied     int
		wantVersion uint64
	}{
		{[]Update{dyndb.Insert("E", 1, 2)}, 1, 1},
		{[]Update{dyndb.Insert("E", 1, 2)}, 0, 1},
		{[]Update{dyndb.Insert("E", 1, 2), dyndb.Insert("E", 3, 4), dyndb.Insert("E", 5, 6)}, 2, 2},
		{[]Update{dyndb.Insert("E", 3, 4), dyndb.Insert("E", 5, 6)}, 0, 2},
		{nil, 0, 2},
		{[]Update{dyndb.Delete("E", 1, 2)}, 1, 3},
	} {
		applied, version, err := ws.Commit(c.updates)
		if err != nil || applied != c.applied || version != c.wantVersion || version != ws.Version() {
			t.Fatalf("commit %d: applied %d at version %d (err %v), want %d at %d", i, applied, version, err, c.applied, c.wantVersion)
		}
	}
	if _, _, err := ws.Commit([]Update{dyndb.Insert("E", 1)}); err == nil {
		t.Fatal("Commit accepted a tuple of the wrong arity")
	}
}

// BenchmarkCapturedCommit commits 8-update batches on the feed query with
// a delta capture active, at two result sizes over the same store. The
// commit's cost must not depend on |ϕ(D)|: the two sizes should read
// alike (the in-process twin of the subscribe-small / subscribe-large
// ratio of `go run ./benchmark`).
func BenchmarkCapturedCommit(b *testing.B) {
	const edges, ys = 30000, 6000 // every y carries 5 edges
	for _, result := range []int{300, 30000} {
		b.Run(fmt.Sprintf("result=%d", result), func(b *testing.B) {
			ws := NewWorkspace(WorkspaceOptions{})
			h, err := ws.Register("feed", "Q(x,y) :- E(x,y), T(y)")
			if err != nil {
				b.Fatal(err)
			}
			db := dyndb.New()
			for i := 0; i < edges; i++ {
				if _, err := db.Insert("E", Value(i), Value(i%ys)); err != nil {
					b.Fatal(err)
				}
			}
			for y := 0; y < result*ys/edges; y++ {
				if _, err := db.Insert("T", Value(y)); err != nil {
					b.Fatal(err)
				}
			}
			if err := ws.Load(db); err != nil {
				b.Fatal(err)
			}
			if got := h.Count(); got != uint64(result) {
				b.Fatalf("result holds %d tuples, want %d", got, result)
			}
			delivered := 0
			if err := ws.CaptureDeltas("feed", func(ev DeltaEvent) { delivered += len(ev.Added) + len(ev.Removed) }); err != nil {
				b.Fatal(err)
			}
			// Eight fresh edges spread over the y range, then their
			// deletion, and again: the store stays at its loaded size.
			var ins, del []Update
			for j := 0; j < 8; j++ {
				x, y := Value(edges+j), Value(j*751%ys)
				ins, del = append(ins, dyndb.Insert("E", x, y)), append(del, dyndb.Delete("E", x, y))
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				batch := ins
				if i%2 == 1 {
					batch = del
				}
				if n, _, err := ws.Commit(batch); err != nil || n != 8 {
					b.Fatalf("batch netted %d of 8 (err %v)", n, err)
				}
			}
			b.ReportMetric(float64(delivered)/float64(b.N), "delta-tuples/op")
		})
	}
}

// BenchmarkDeltaJoin commits 8-update batches on the paper's hard query
// ϕS-E-T, ivm-routed, over the ingest-ivm shape: every key has 50 E
// tuples. Two cases, the two kinds of update in ingest-ivm's stream:
//
//   - ST: S and T changes. Each update is a delta join of 50 valuations
//     (a restricted S or T, then an E index bucket, then a full-tuple
//     filter), half of them reaching the result.
//   - E: E changes. Each commit is one delta join over the 8 restricted
//     E tuples, each followed by two full-tuple filters (S, then T).
//
// With -benchmem the allocation column is the point: it counts the
// commit's bookkeeping, not the valuations.
func BenchmarkDeltaJoin(b *testing.B) {
	const keys, degree = 1200, 50
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("hard", "Q(x,y) :- S(x), E(x,y), T(y)")
	if err != nil {
		b.Fatal(err)
	}
	if h.Strategy() != StrategyIVM {
		b.Fatalf("hard routed to %v, want ivm", h.Strategy())
	}
	db := dyndb.New()
	for x := Value(0); x < keys; x++ {
		for j := Value(0); j < degree; j++ {
			if _, err := db.Insert("E", x, (x*31+j*977)%keys); err != nil {
				b.Fatal(err)
			}
		}
		if x%2 == 0 {
			db.Insert("S", x)
			db.Insert("T", x)
		}
	}
	if err := ws.Load(db); err != nil {
		b.Fatal(err)
	}
	// Each case inserts its 8 absent tuples, then deletes them, and again:
	// the store stays at its loaded size.
	var stIns, stDel, eIns, eDel []Update
	for j := Value(0); j < 4; j++ {
		k := 2*(j*97) + 1
		stIns = append(stIns, dyndb.Insert("S", k), dyndb.Insert("T", k))
		stDel = append(stDel, dyndb.Delete("S", k), dyndb.Delete("T", k))
	}
	for j := Value(0); j < 8; j++ {
		// x's E tuples are (x, (31x + 977i) mod keys) for i < degree, so
		// i = degree gives an absent one; x and y of both parities.
		x := j * 149 % keys
		y := (x*31 + degree*977) % keys
		eIns, eDel = append(eIns, dyndb.Insert("E", x, y)), append(eDel, dyndb.Delete("E", x, y))
	}
	for _, c := range []struct {
		name     string
		ins, del []Update
	}{{"ST", stIns, stDel}, {"E", eIns, eDel}} {
		b.Run(c.name, func(b *testing.B) {
			commit := func(batch []Update) {
				if n, _, err := ws.Commit(batch); err != nil || n != 8 {
					b.Fatalf("batch netted %d of 8 (err %v)", n, err)
				}
			}
			// Untimed: the first S and T joins build the store's E indexes.
			commit(c.ins)
			commit(c.del)
			b.ReportAllocs()
			i := 0
			for ; b.Loop(); i++ {
				if i%2 == 0 {
					commit(c.ins)
				} else {
					commit(c.del)
				}
			}
			// Untimed (b.Loop stopped the timer): after an odd count the
			// tuples are still in, and the store outlives this run — the
			// next -count repeat starts from it.
			if i%2 == 1 {
				commit(c.del)
			}
		})
	}
}

// BenchmarkSnapshotAdvance commits 8-update batches on the feed query
// with a reader pinning a snapshot after every commit, at three result
// sizes over the same store. Keeping the pinned snapshot current must
// not cost O(|ϕ(D)|): the delta rebuilds the leaves it touches and the
// rest are shared, so what grows with the result is the one index level
// alone — a slice header per leaf, n/snapLeafRows of them, copied per
// advance — which B/op shows beside the touched leaves.
func BenchmarkSnapshotAdvance(b *testing.B) {
	const edges = 100000 // every y carries 5 edges
	for _, result := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("result=%dk", result/1000), func(b *testing.B) {
			ws, h := loadFeed(b, edges, result)
			// Eight fresh edges into the result, spread over the x range
			// and so over the snapshot's leaves, then their deletion, and
			// again: store and result stay at their loaded size.
			ins, del := feedToggles(edges, result, 8)
			h.Snapshot()
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				batch := ins
				if i%2 == 1 {
					batch = del
				}
				if n, _, err := ws.Commit(batch); err != nil || n != 8 {
					b.Fatalf("batch netted %d of 8 (err %v)", n, err)
				}
				if got := h.Snapshot().Len(); got != result+8*((i+1)%2) {
					b.Fatalf("pinned %d tuples after commit %d", got, i)
				}
			}
			if st := h.SnapshotCacheStats(); st.Rebuilt != 0 || st.Patched != uint64(b.N) {
				b.Fatalf("%d commits: %+v, want every advance patched", b.N, st)
			}
		})
	}
}
