package dyncq

import (
	"fmt"
	"math/rand"
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
// producing the DeltaEvent of an Apply or ApplyBatch commit — the
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
			if _, err := ws.ApplyBatch(workload.RandomStream(rng, q.Schema(), 15, 200, 0.2)); err != nil {
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
				if _, err := ws.Apply(u); err != nil {
					t.Fatal(err)
				}
			}
			for i := 100; i < len(stream); i += 25 {
				if _, err := ws.ApplyBatch(stream[i:min(i+25, len(stream))]); err != nil {
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
				if _, err := ws.Apply(u); err != nil {
					t.Fatal(err)
				}
				h.Snapshot()
			}
			for i := 100; i < len(stream); i += 25 {
				if _, err := ws.ApplyBatch(stream[i:min(i+25, len(stream))]); err != nil {
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

// TestApplyAllocationFree: the single-update path drives the backends'
// commit sequence over a workspace-owned net delta of one and the store
// keeps its tuples inline in the shard table, so an insert/delete pair
// allocates nothing at all.
func TestApplyAllocationFree(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	for name, text := range map[string]string{"feed": "Q(x,y) :- E(x,y), T(y)", "star": "Q(y) :- E(x,y), T(y)"} {
		if _, err := ws.Register(name, text); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if _, err := ws.ApplyBatch([]Update{dyndb.Insert("E", Value(i), Value(i%50)), dyndb.Insert("T", Value(i%50))}); err != nil {
			t.Fatal(err)
		}
	}
	ins, del := dyndb.Insert("E", 5000, 7), dyndb.Delete("E", 5000, 7)
	pair := func() {
		if changed, err := ws.Apply(ins); err != nil || !changed {
			t.Fatalf("insert: changed=%v err=%v", changed, err)
		}
		if changed, err := ws.Apply(del); err != nil || !changed {
			t.Fatalf("delete: changed=%v err=%v", changed, err)
		}
	}
	pair() // warm the arena free chains and the map slots
	if allocs := testing.AllocsPerRun(1000, pair); allocs != 0 {
		t.Fatalf("an Apply insert/delete pair allocates %v times, want 0", allocs)
	}
}

// TestCommitAllocationFree: a warmed core-routed Commit with no subscriber
// allocates a small constant — the batch's own bookkeeping slices — that
// does not grow with the batch: nothing on the path allocates per update.
// (Before the store kept tuples inline and the coalescer kept its slot
// tables, a commit paid one tuple copy per insert and up to one table,
// grown by rehash, per relation.)
func TestCommitAllocationFree(t *testing.T) {
	allocsAt := func(batch int) float64 {
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
		return testing.AllocsPerRun(200, cycle) / 2
	}
	small, large := allocsAt(64), allocsAt(512)
	t.Logf("allocs per commit: %v at 64 updates, %v at 512", small, large)
	if small != large {
		t.Fatalf("a core-routed commit allocates %v times at 64 updates but %v at 512: something allocates per update", small, large)
	}
	if small > 8 {
		t.Fatalf("a core-routed commit of 64 updates allocates %v times, want a handful", small)
	}
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
		if _, err := h.ws.ApplyBatch(stream); err != nil {
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
		if _, err := h.ws.ApplyBatch([]Update{dyndb.Insert("E", 1, 2), dyndb.Insert("T", 2)}); err != nil {
			t.Fatal(err)
		}
		if !h.Contains(nil) || h.Contains([]Value{1}) {
			t.Fatalf("%s: Boolean Contains disagrees with Answer %v", h.Strategy(), h.Answer())
		}
	}
}

// TestCommitReturnsItsVersion: Commit reports the version it produced —
// one update through the fast path, a batch through the pipeline — and a
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
				if n, err := ws.ApplyBatch(batch); err != nil || n != 8 {
					b.Fatalf("batch netted %d of 8 (err %v)", n, err)
				}
			}
			b.ReportMetric(float64(delivered)/float64(b.N), "delta-tuples/op")
		})
	}
}

// BenchmarkDeltaJoin commits 8-update batches of S and T changes on the
// paper's hard query ϕS-E-T, ivm-routed, over the ingest-ivm shape: every
// key has 50 E tuples, so each update is a delta join of 50 valuations
// (half of them reaching the result). With -benchmem the allocation
// column is the point: it counts the commit's bookkeeping, not the 400
// valuations.
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
	// Four absent S keys and four absent T keys, then their deletion, and
	// again: the store stays at its loaded size.
	var ins, del []Update
	for j := Value(0); j < 4; j++ {
		k := 2*(j*97) + 1
		ins = append(ins, dyndb.Insert("S", k), dyndb.Insert("T", k))
		del = append(del, dyndb.Delete("S", k), dyndb.Delete("T", k))
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		batch := ins
		if i%2 == 1 {
			batch = del
		}
		if n, err := ws.ApplyBatch(batch); err != nil || n != 8 {
			b.Fatalf("batch netted %d of 8 (err %v)", n, err)
		}
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
				if n, err := ws.ApplyBatch(batch); err != nil || n != 8 {
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
