package dyncq

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/workload"
)

// snapshotsIdentical asserts two snapshots of the same query at the
// same version are identical: same header, same rows, same order.
func snapshotsIdentical(t *testing.T, got, want *QuerySnapshot, where string) {
	t.Helper()
	if got.Version() != want.Version() {
		t.Fatalf("%s: version %d vs %d", where, got.Version(), want.Version())
	}
	if got.Len() != want.Len() || got.Arity() != want.Arity() {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", where, got.Len(), got.Arity(), want.Len(), want.Arity())
	}
	rowsIdentical(t, got.Tuples(), want.Tuples(), where)
}

func rowsIdentical(t *testing.T, got, want [][]Value, where string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows vs %d", where, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d differs: %v vs %v", where, i, got[i], want[i])
		}
	}
}

// checkLeaves asserts the storage invariants of a snapshot's leaves at
// the given leaf capacity: no leaf empty, rows strictly increasing within
// and across leaves, every leaf of a multi-leaf result between capacity/2
// and 2×capacity rows (a lone leaf only bounded above), n rows in total.
func checkLeaves(t *testing.T, leaves []*snapLeaf, arity, capacity, n int, where string) {
	t.Helper()
	total := 0
	var last []Value
	for k, leaf := range leaves {
		l := leaf.rows
		rows := len(l) / arity
		if rows == 0 || len(l)%arity != 0 {
			t.Fatalf("%s: leaf %d holds %d values at arity %d", where, k, len(l), arity)
		}
		if rows > 2*capacity || (len(leaves) > 1 && 2*rows < capacity) {
			t.Fatalf("%s: leaf %d of %d holds %d rows, capacity %d", where, k, len(leaves), rows, capacity)
		}
		for off := 0; off < len(l); off += arity {
			row := l[off : off+arity]
			if last != nil && rowCompare(last, row) >= 0 {
				t.Fatalf("%s: leaf %d: row %v does not sort after %v", where, k, row, last)
			}
			last = row
		}
		total += rows
	}
	if total != n {
		t.Fatalf("%s: leaves hold %d rows, snapshot says %d", where, total, n)
	}
}

// diffSortedRows returns what a lex-sorted row list gained and lost
// against an earlier one, each side sorted: a DeltaEvent by hand.
func diffSortedRows(prev, now [][]Value) (added, removed [][]Value) {
	i, j := 0, 0
	for i < len(prev) || j < len(now) {
		switch {
		case j == len(now) || (i < len(prev) && rowCompare(prev[i], now[j]) < 0):
			removed = append(removed, prev[i])
			i++
		case i == len(prev) || rowCompare(prev[i], now[j]) > 0:
			added = append(added, now[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	return added, removed
}

// TestSnapshotAdvanceMatchesFreshPin: a cache advanced commit-by-commit
// is identical at EVERY version of a seeded stream to a fresh
// copy-on-pin snapshot at that version — for every strategy (core
// unsharded and sharded), with and without a delta capture, across
// single updates, batches, a fill to the full domain, a drain to nothing
// and a mid-stream Load. Beside the real cache, which cuts leaves at
// snapLeafRows, the test drives patchLeaves itself at a capacity of 4
// with the same per-version deltas, so the result crosses 0 → a dozen
// and more leaves → 0 and splits, folds and empty drops all happen; the
// leaf invariants are checked at every step on both.
func TestSnapshotAdvanceMatchesFreshPin(t *testing.T) {
	type config struct {
		name   string
		force  Strategy
		shards int
	}
	configs := []config{
		{"core/shards=1", StrategyCore, 1},
		{"core/shards=4", StrategyCore, 4},
		{"ivm", StrategyIVM, 0},
		{"recompute", StrategyRecompute, 0},
	}
	for _, cfg := range configs {
		for _, capture := range []bool{true, false} {
			name := cfg.name
			if capture {
				name += "/capture"
			}
			t.Run(name, func(t *testing.T) {
				const domain, smallLeaf = 12, 4
				rng := rand.New(rand.NewSource(1031))
				ws := NewWorkspace(WorkspaceOptions{})
				q := cq.MustParse("Q(x,y) :- E(x,y), T(y)")
				// Two registrations of the same query over the shared
				// store: "adv" keeps its cache alive across every commit
				// (pinned each version, so the advance path maintains
				// it); "fresh" is evicted before each pin, forcing the
				// copy-on-pin materialisation the cache replaces.
				opt := Options{Force: cfg.force, Shards: cfg.shards}
				adv, err := ws.RegisterQuery("adv", q, opt)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := ws.RegisterQuery("fresh", q, opt)
				if err != nil {
					t.Fatal(err)
				}
				if capture {
					if err := ws.CaptureDeltas("adv", func(DeltaEvent) {}); err != nil {
						t.Fatal(err)
					}
				}
				adv.Snapshot() // prime the cache at the empty version

				var mirror []*snapLeaf // patchLeaves at capacity smallLeaf, fed the per-version deltas
				var mirrorRows [][]Value
				mostLeaves := 0
				check := func(where string) {
					t.Helper()
					fresh.EvictSnapshot()
					want := fresh.Snapshot()
					got := adv.Snapshot()
					if got2 := adv.CachedSnapshot(); got2 != got {
						t.Fatalf("%s: cache not stable across pins", where)
					}
					if got.Name() != "adv" || want.Name() != "fresh" {
						t.Fatalf("%s: names %q/%q", where, got.Name(), want.Name())
					}
					// Different handles, same query, same stream: a snapshot
					// is a function of the result set, so they agree row
					// for row.
					snapshotsIdentical(t, got, want, where)
					checkLeaves(t, got.leaves, got.arity, snapLeafRows, got.n, where+" (advanced)")
					checkLeaves(t, want.leaves, want.arity, snapLeafRows, want.n, where+" (fresh)")

					rows := want.Tuples()
					added, removed := diffSortedRows(mirrorRows, rows)
					mirror = patchLeaves(mirror, 2, smallLeaf, added, removed)
					checkLeaves(t, mirror, 2, smallLeaf, len(rows), where+" (capacity 4)")
					rowsIdentical(t, (&QuerySnapshot{arity: 2, n: len(rows), leaves: mirror}).Tuples(), rows, where+" (capacity 4)")
					mirrorRows = rows
					mostLeaves = max(mostLeaves, len(mirror))
				}
				apply := func(where string, updates ...Update) {
					t.Helper()
					if _, err := ws.ApplyBatch(updates); err != nil {
						t.Fatal(err)
					}
					check(where)
				}

				stream := workload.RandomStream(rng, q.Schema(), domain, 160, 0.35)
				for _, u := range stream[:60] {
					apply("single update", u)
				}
				for i := 60; i+20 <= len(stream); i += 20 {
					apply("batch", stream[i:i+20]...)
				}
				// Fill to the whole domain, one x at a time: each batch adds
				// a run of neighbouring rows, which is what splits leaves.
				for x := Value(1); x <= domain; x++ {
					fill := []Update{dyndb.Insert("T", x)}
					for y := Value(1); y <= domain; y++ {
						fill = append(fill, dyndb.Insert("E", x, y))
					}
					apply("fill", fill...)
				}
				if got := adv.Snapshot().Len(); got != domain*domain {
					t.Fatalf("filled result holds %d rows, want %d", got, domain*domain)
				}
				// Drain: every second y first (one row out of each stretch of
				// the order: folds), then whole x ranges (empty drops).
				for y := Value(1); y <= domain; y += 2 {
					apply("drain T", dyndb.Delete("T", y))
				}
				for x := Value(1); x <= domain; x++ {
					var drain []Update
					for y := Value(1); y <= domain; y++ {
						drain = append(drain, dyndb.Delete("E", x, y))
					}
					apply("drain E", drain...)
				}
				if adv.Snapshot().Len() != 0 || len(mirror) != 0 {
					t.Fatalf("drained result still holds %d rows in %d leaves", adv.Snapshot().Len(), len(mirror))
				}
				if mostLeaves < 12 {
					t.Fatalf("the result never spread over more than %d leaves of %d rows; want at least 12", mostLeaves, smallLeaf)
				}

				db := dyndb.New()
				for _, u := range []Update{
					dyndb.Insert("E", 1, 2), dyndb.Insert("E", 7, 2), dyndb.Insert("T", 2),
				} {
					if _, err := db.Apply(u); err != nil {
						t.Fatal(err)
					}
				}
				if err := ws.Load(db); err != nil {
					t.Fatal(err)
				}
				check("after Load")
				for _, u := range workload.RandomStream(rng, q.Schema(), domain, 40, 0.3) {
					apply("post-Load update", u)
				}

				// Delta in hand → patch, none → rebuild, and that is the
				// whole rule: core and ivm emit for the cache's sake, so
				// they only ever rebuild across an uncaptured Load;
				// recompute is never asked to emit for a snapshot, so
				// without a capture every one of its advances rebuilds.
				st := adv.SnapshotCacheStats()
				if st.Hits == 0 {
					t.Fatal("advancing cache never served a hit")
				}
				wantRebuilt := uint64(0)
				if !capture {
					wantRebuilt = 1 // the one Load
				}
				switch {
				case cfg.force == StrategyRecompute && !capture:
					if st.Patched != 0 || st.Rebuilt == 0 {
						t.Fatalf("uncaptured recompute cache must rebuild every advance: %+v", st)
					}
				case st.Patched == 0 || st.Rebuilt != wantRebuilt:
					t.Fatalf("%s cache: want every commit patched and %d rebuilds (one per uncaptured Load): %+v", name, wantRebuilt, st)
				}
			})
		}
	}
}

// TestPatchLeaves: chains of random deltas through patchLeaves at small
// capacities against a brute-force reference (apply the delta to the row
// set, re-sort), leaf invariants checked after every patch.
func TestPatchLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 60; iter++ {
		arity, capacity := 1+rng.Intn(3), 1+rng.Intn(6)
		rows := map[string][]Value{}
		var leaves []*snapLeaf
		for step := 0; step < 40; step++ {
			// Grow for a while, then shrink back towards nothing.
			pAdd, pRemove := 0.5, 0.1
			if step >= 25 {
				pAdd, pRemove = 0.05, 0.4
			}
			var added, removed [][]Value
			for _, r := range rows {
				if rng.Float64() < pRemove {
					removed = append(removed, r)
				}
			}
			for _, r := range removed {
				delete(rows, fmtRow(r))
			}
			for i, n := 0, int(pAdd*float64(rng.Intn(24))); i < n; i++ {
				row := make([]Value, arity)
				for k := range row {
					row[k] = Value(rng.Intn(6))
				}
				if _, dup := rows[fmtRow(row)]; dup || slices.ContainsFunc(removed, func(r []Value) bool { return slices.Equal(r, row) }) {
					continue // Added ∩ prev = ∅, and the two sides are disjoint
				}
				rows[fmtRow(row)] = row
				added = append(added, row)
			}
			sortTuplesLex(added)
			sortTuplesLex(removed)

			leaves = patchLeaves(leaves, arity, capacity, added, removed)
			var want [][]Value
			for _, r := range rows {
				want = append(want, r)
			}
			sortTuplesLex(want)
			where := fmt.Sprintf("iter %d step %d (arity %d, capacity %d, +%d −%d)", iter, step, arity, capacity, len(added), len(removed))
			checkLeaves(t, leaves, arity, capacity, len(want), where)
			rowsIdentical(t, (&QuerySnapshot{arity: arity, n: len(want), leaves: leaves}).Tuples(), want, where)
		}
	}
}

// TestLexOrder: the radix sort of row numbers against the comparison
// sort, over values of every sign and size, with repeated rows.
func TestLexOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	spreads := []int64{3, 300, 70000, 1 << 40, 1 << 62}
	for iter := 0; iter < 200; iter++ {
		arity, n := 1+rng.Intn(3), rng.Intn(300)
		buf := make([]Value, n*arity)
		for i := range buf {
			buf[i] = Value(rng.Int63n(spreads[rng.Intn(len(spreads))]) - rng.Int63n(spreads[iter%len(spreads)]))
		}
		row := func(i int32) []Value { return buf[int(i)*arity : (int(i)+1)*arity] }
		got := lexOrder(buf, arity)
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int { return rowCompare(row(a), row(b)) })
		if !slices.Equal(got, want) { // the radix passes are stable too, so even ties agree
			t.Fatalf("iter %d (arity %d, %d rows): order %v, want %v", iter, arity, n, got, want)
		}
	}
}

func fmtRow(r []Value) string {
	b := make([]byte, 0, len(r)*4)
	for _, v := range r {
		b = append(b, byte(v), ',')
	}
	return string(b)
}

// TestSnapshotAdvanceSharesLeaves: structural sharing as an exact count.
// On a result of more than 64 leaves, a commit whose delta holds d tuples
// leaves all but at most 2d leaves of the previous snapshot in place,
// pointer-identical, in the next one — and the next one is still right.
func TestSnapshotAdvanceSharesLeaves(t *testing.T) {
	const ys, perY = 100, 100 // 10,000 result rows
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("feed", "Q(x,y) :- E(x,y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	db := dyndb.New()
	for i := 0; i < ys*perY; i++ {
		if _, err := db.Insert("E", Value(i), Value(i%ys)); err != nil {
			t.Fatal(err)
		}
	}
	for y := 0; y < ys; y++ {
		if _, err := db.Insert("T", Value(y)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Load(db); err != nil {
		t.Fatal(err)
	}
	prev := h.Snapshot()
	if len(prev.leaves) < 64 {
		t.Fatalf("result of %d rows sits in %d leaves, want at least 64", prev.Len(), len(prev.leaves))
	}
	encode := func(name string, arity int, rows []Value) []byte {
		return fmt.Appendf(nil, "%s/%d%v", name, arity, rows)
	}
	if blocks, encoded := prev.Blocks(encode); encoded != len(prev.leaves) || len(blocks) != encoded {
		t.Fatalf("the first Blocks encoded %d of %d leaves into %d blocks", encoded, len(prev.leaves), len(blocks))
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 40; round++ {
		// d scattered result tuples in, or the same ones out again.
		d := 1 + rng.Intn(8)
		var batch []Update
		for j := 0; j < d; j++ {
			x, y := Value(ys*perY+round*8+j), Value(rng.Intn(ys))
			batch = append(batch, dyndb.Insert("E", x, y))
			if round%4 == 3 { // every fourth round takes a stretch of old rows out instead
				batch[j] = dyndb.Delete("E", Value((round*97+j)%(ys*perY)), Value((round*97+j)%ys))
			}
		}
		if n, err := ws.ApplyBatch(batch); err != nil || n != d {
			t.Fatalf("round %d: batch netted %d of %d (err %v)", round, n, d, err)
		}
		next := h.Snapshot()
		kept := make(map[*snapLeaf]bool, len(next.leaves))
		for _, l := range next.leaves {
			kept[l] = true
		}
		rebuilt := 0
		for _, l := range prev.leaves {
			if !kept[l] {
				rebuilt++
			}
		}
		if rebuilt == 0 || rebuilt > 2*d {
			t.Fatalf("round %d: a delta of %d tuples replaced %d of %d leaves, want between 1 and %d", round, d, rebuilt, len(prev.leaves), 2*d)
		}
		checkLeaves(t, next.leaves, next.arity, snapLeafRows, next.n, fmt.Sprintf("round %d", round))
		blocks, encoded := next.Blocks(encode)
		if encoded != len(next.leaves)-(len(prev.leaves)-rebuilt) {
			t.Fatalf("round %d: Blocks encoded %d leaves, but %d of %d are new since the snapshot before", round, encoded,
				len(next.leaves)-(len(prev.leaves)-rebuilt), len(next.leaves))
		}
		again, encoded := next.Blocks(encode)
		if encoded != 0 || len(again) != len(next.leaves) {
			t.Fatalf("round %d: the second Blocks encoded %d leaves and returned %d blocks for %d", round, encoded, len(again), len(next.leaves))
		}
		for k, l := range next.leaves {
			if want := encode("feed", 2, l.rows); string(blocks[k]) != string(want) || &again[k][0] != &blocks[k][0] || &blocks[k][0] != &(*l.block.Load())[0] {
				t.Fatalf("round %d: block %d is not leaf %d's one encoding", round, k, k)
			}
		}
		prev = next
	}
	if st := h.SnapshotCacheStats(); st.Rebuilt != 0 || st.Patched != 40 {
		t.Fatalf("want 40 patched advances and no rebuild: %+v", st)
	}
	h.EvictSnapshot()
	snapshotsIdentical(t, prev, h.Snapshot(), "advanced vs fresh pin after 40 commits")
}

// TestSnapshotEvictionDuringCommit: EvictSnapshot takes no lock, so a
// cached snapshot can vanish between a commit's begin (which asked the
// backend for the delta on its behalf) and its afterCommit (which then
// finds nothing to advance and leaves the delta parked). The parked
// delta belongs to that one version: whatever is pinned afterwards must
// be the result at its own version, never a later snapshot patched by a
// stale delta. An evictor races a committer and a pinner; every pin is
// compared with the result the same stream produced, version for
// version, on a quiet workspace.
func TestSnapshotEvictionDuringCommit(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- E(x,y), T(y)")
	rng := rand.New(rand.NewSource(17))
	stream := workload.RandomStream(rng, q.Schema(), 10, 800, 0.4)
	build := func(force Strategy) (*Workspace, *Handle) {
		ws := NewWorkspace(WorkspaceOptions{})
		h, err := ws.RegisterQuery("q", q, Options{Force: force})
		if err != nil {
			t.Fatal(err)
		}
		return ws, h
	}
	for _, force := range []Strategy{StrategyCore, StrategyIVM} {
		t.Run(force.String(), func(t *testing.T) {
			quiet, qh := build(force)
			want := map[uint64][][]Value{0: nil}
			for _, u := range stream {
				if _, err := quiet.Apply(u); err != nil {
					t.Fatal(err)
				}
				want[quiet.Version()] = qh.Snapshot().Tuples()
			}

			ws, h := build(force)
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // evictor: every few versions, at whatever point of a commit it lands on
				defer wg.Done()
				for next := uint64(0); !stop.Load(); runtime.Gosched() {
					if v := ws.version.Load(); v >= next {
						h.EvictSnapshot()
						next = v + 3
					}
				}
			}()
			var pins atomic.Int64
			go func() { // pinner
				defer wg.Done()
				for ; !stop.Load(); runtime.Gosched() {
					s := h.Snapshot()
					rows, ok := want[s.Version()]
					if !ok {
						t.Errorf("pinned version %d, which the stream never reaches", s.Version())
						return
					}
					if got := s.Tuples(); len(got) != len(rows) || !slices.EqualFunc(got, rows, func(a, b []Value) bool { return slices.Equal(a, b) }) {
						t.Errorf("pin at version %d holds %d rows %v, the result there is %d rows %v", s.Version(), len(got), got, len(rows), rows)
						return
					}
					pins.Add(1)
				}
			}()
			for i, u := range stream {
				// The stream is short work: hold it back so that a pin
				// lands about every second commit at the least.
				for pins.Load() < int64(i/2) && !t.Failed() {
					runtime.Gosched()
				}
				if _, err := ws.Apply(u); err != nil {
					t.Error(err)
					break
				}
			}
			stop.Store(true)
			wg.Wait()
			if st := h.SnapshotCacheStats(); st.Patched == 0 || st.Invalidated == 0 {
				t.Fatalf("the race never both advanced and evicted the cache: %+v", st)
			}
		})
	}
}

// TestSnapshotRePinZeroAlloc: re-pinning an unchanged version is one
// pointer load — zero allocations, zero enumeration, same shared
// snapshot, hit counter advancing.
func TestSnapshotRePinZeroAlloc(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("q", "Q(x,y) :- E(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	if _, err := ws.ApplyBatch(workload.RandomStream(rng, map[string]int{"E": 2}, 40, 500, 0.1)); err != nil {
		t.Fatal(err)
	}
	s0 := h.Snapshot()
	before := h.SnapshotCacheStats()
	var s *QuerySnapshot
	if n := testing.AllocsPerRun(200, func() { s = h.Snapshot() }); n != 0 {
		t.Fatalf("re-pin allocates %.1f per op, want 0", n)
	}
	if s != s0 {
		t.Fatal("re-pin returned a different snapshot than the cached one")
	}
	after := h.SnapshotCacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("re-pin materialised: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits <= before.Hits {
		t.Fatalf("hit counter did not advance: %d -> %d", before.Hits, after.Hits)
	}
}

// TestSnapshotDemandDecay: a cache that stops being pinned is dropped
// after snapDemandGrace commits instead of taxing every commit forever,
// and the next pin re-materialises.
func TestSnapshotDemandDecay(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("q", "Q(x,y) :- E(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	h.Snapshot()
	for i := 0; i < snapDemandGrace; i++ {
		if _, err := ws.Apply(dyndb.Insert("E", Value(i), Value(i))); err != nil {
			t.Fatal(err)
		}
		if h.snap.Load() == nil {
			t.Fatalf("cache dropped after %d commits, grace is %d", i+1, snapDemandGrace)
		}
	}
	if _, err := ws.Apply(dyndb.Insert("E", 999, 999)); err != nil {
		t.Fatal(err)
	}
	if h.snap.Load() != nil {
		t.Fatal("cache survived past the demand grace with no pins")
	}
	if st := h.SnapshotCacheStats(); st.Invalidated == 0 {
		t.Fatalf("decay not counted as invalidation: %+v", st)
	}
	s := h.Snapshot() // re-pin re-materialises and re-arms
	if s == nil || s.Version() != ws.Version() {
		t.Fatal("re-pin after decay did not materialise a current snapshot")
	}
}

// TestSnapshotUnregisterInvalidates: Unregister drops the cache so a
// re-registered name can never be served a stale buffer.
func TestSnapshotUnregisterInvalidates(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("q", "Q(x) :- S(x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Apply(dyndb.Insert("S", 1)); err != nil {
		t.Fatal(err)
	}
	h.Snapshot()
	if !ws.Unregister("q") {
		t.Fatal("unregister failed")
	}
	if h.snap.Load() != nil {
		t.Fatal("unregistered handle still holds a cached snapshot")
	}
	h2, err := ws.Register("q", "Q(x) :- T(x)")
	if err != nil {
		t.Fatal(err)
	}
	if got := h2.Snapshot(); got.Len() != 0 {
		t.Fatalf("re-registered query sees %d stale tuples", got.Len())
	}
}

// TestSnapshotPinRace: N goroutines pinning (mixing the lock-free probe
// and the full pin) while a writer commits. Every pinned snapshot must
// be internally consistent and at a version the workspace actually
// reached; run under -race this also proves the fast path publishes
// safely.
func TestSnapshotPinRace(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("q", "Q(x,y) :- E(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	const (
		pinners = 8
		commits = 400
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < pinners; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for !stop.Load() {
				var s *QuerySnapshot
				if p%2 == 0 {
					s = h.Snapshot()
				} else if s = h.CachedSnapshot(); s == nil {
					continue
				}
				held := 0
				for _, l := range s.leaves {
					held += len(l.rows)
				}
				if held != s.Len()*s.Arity() {
					t.Errorf("pinned snapshot shape broken: n=%d arity=%d, leaves hold %d values", s.Len(), s.Arity(), held)
					return
				}
				for i := 0; i < s.Len(); i++ {
					if tup := s.Tuple(i); len(tup) != 2 {
						t.Errorf("tuple %d has arity %d", i, len(tup))
						return
					}
				}
				if v := s.Version(); v > ws.Version() {
					t.Errorf("snapshot version %d ahead of workspace", v)
					return
				}
			}
		}(p)
	}
	rng := rand.New(rand.NewSource(99))
	for _, u := range workload.RandomStream(rng, map[string]int{"E": 2}, 25, commits, 0.3) {
		if _, err := ws.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestSnapshotTuplesSharesLeaves: Tuples slices straight out of the
// leaves — one slice-header array allocation, rows aliasing the
// snapshot's storage, in the order Tuple and Enumerate give.
func TestSnapshotTuplesSharesLeaves(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("q", "Q(x,y) :- E(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*snapLeafRows; i++ {
		if _, err := ws.Apply(dyndb.Insert("E", Value(i*7%1000), Value(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	h.EvictSnapshot() // the pin materialises: several leaves, not one patched one
	s := h.Snapshot()
	if len(s.leaves) < 3 {
		t.Fatalf("%d rows sit in %d leaves, want at least 3", s.Len(), len(s.leaves))
	}
	rows := s.Tuples()
	if len(rows) != s.Len() {
		t.Fatalf("Tuples returned %d rows, want %d", len(rows), s.Len())
	}
	i := 0
	s.Enumerate(func(row []Value) bool {
		if &row[0] != &rows[i][0] || &s.Tuple(i)[0] != &rows[i][0] {
			t.Fatalf("row %d: Tuples, Tuple and Enumerate do not alias the same storage", i)
		}
		i++
		return true
	})
	k, off := 0, 0 // where row i sits in the leaves
	for i, row := range rows {
		if off == len(s.leaves[k].rows) {
			k, off = k+1, 0
		}
		if &row[0] != &s.leaves[k].rows[off] {
			t.Fatalf("row %d does not alias its leaf", i)
		}
		off += s.arity
		if cap(row) != s.arity {
			t.Fatalf("row %d capacity %d leaks past its row (arity %d)", i, cap(row), s.arity)
		}
		if i > 0 && rowCompare(rows[i-1], row) >= 0 {
			t.Fatalf("row %d %v does not sort after %v", i, row, rows[i-1])
		}
	}
}
