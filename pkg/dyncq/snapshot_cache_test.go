package dyncq

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

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
// copy-on-pin snapshot at that version — for every strategy, unfanned and
// fanned out at width 4 on core, with and without a delta capture, across
// single updates, batches, a fill to the full domain, a drain to nothing
// and a mid-stream Load. Beside the real cache, which cuts leaves at
// snapLeafRows, the test drives patchLeaves itself at a capacity of 4
// with the same per-version deltas, so the result crosses 0 → a dozen
// and more leaves → 0 and splits, folds and empty drops all happen; the
// leaf invariants are checked at every step on both.
func TestSnapshotAdvanceMatchesFreshPin(t *testing.T) {
	type config struct {
		name  string
		force Strategy
		width int
	}
	configs := []config{
		{"core/width=1", StrategyCore, 1},
		{"core/width=4", StrategyCore, 4},
		{"ivm", StrategyIVM, 1},
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
				ws := fannedOut(cfg.width)
				q := cq.MustParse("Q(x,y) :- E(x,y), T(y)")
				// Two registrations of the same query over the shared
				// store: "adv" keeps its cache alive across every commit
				// (pinned each version, so the advance path maintains
				// it); "fresh" is evicted before each pin, forcing the
				// copy-on-pin materialisation the cache replaces.
				opt := Options{Force: cfg.force}
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
					mirror, _ = patchLeaves(mirror, 2, smallLeaf, added, removed)
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
				// whole rule: every backend emits for the cache's sake, so
				// it only ever rebuilds across an uncaptured Load.
				st := adv.SnapshotCacheStats()
				if st.Hits == 0 {
					t.Fatal("advancing cache never served a hit")
				}
				wantRebuilt := uint64(0)
				if !capture {
					wantRebuilt = 1 // the one Load
				}
				if st.Patched == 0 || st.Rebuilt != wantRebuilt {
					t.Fatalf("%s cache: want every commit patched and %d rebuilds (one per uncaptured Load): %+v", name, wantRebuilt, st)
				}
			})
		}
	}
}

// TestPatchLeaves: chains of random deltas through patchLeaves at small
// capacities against a brute-force reference (apply the delta to the row
// set, re-sort), leaf invariants checked after every patch, and the words
// it reports — the advance's charge for the leaves it rebuilt — equal to
// the values and plan steps held by the leaves not pointer-shared with the
// previous ones. Between patches a third of the leaves are filled, at
// random, so that the plans the next patch builds name filled sources,
// take in the plans of unfilled ones and are cut by folds and splits;
// every plan must hold the rows it promises, and every splice must give
// the leaf's whole encoding while formatting only the rows its plan says.
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

			next, words := patchLeaves(leaves, arity, capacity, added, removed)
			var want [][]Value
			for _, r := range rows {
				want = append(want, r)
			}
			sortTuplesLex(want)
			where := fmt.Sprintf("iter %d step %d (arity %d, capacity %d, +%d −%d)", iter, step, arity, capacity, len(added), len(removed))
			if fresh := rebuiltWords(leaves, next); words != fresh {
				t.Fatalf("%s: patchLeaves reported %d words, the leaves it did not share hold %d", where, words, fresh)
			}
			leaves = next
			checkLeaves(t, leaves, arity, capacity, len(want), where)
			rowsIdentical(t, (&QuerySnapshot{arity: arity, n: len(want), leaves: leaves}).Tuples(), want, where)
			// A reader encodes some leaves before the next patch, so that
			// plans name filled blocks, inline other plans and get cut.
			checkPlans(t, leaves, arity, where)
			for _, l := range leaves {
				if rng.Intn(3) == 0 {
					fillChecked(t, l, arity, where)
				}
			}
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

// rebuiltWords returns the words held by the leaves of next that are not
// pointer-shared with prev — their values and their plans: what an
// advance from prev to next wrote into leaves.
func rebuiltWords(prev, next []*snapLeaf) int {
	shared := make(map[*snapLeaf]bool, len(prev))
	for _, l := range prev {
		shared[l] = true
	}
	words := 0
	for _, l := range next {
		if !shared[l] {
			words += len(l.rows) + l.planWords()
		}
	}
	return words
}

// lineEncoder renders rows the way Blocks asks, one '\n'-terminated line
// per row: the test form of internal/server.encodeLeaf.
func lineEncoder(name string, arity int, rows []Value) []byte {
	var b []byte
	for off := 0; off < len(rows); off += arity {
		b = fmt.Appendf(b, "%s/%d%v\n", name, arity, rows[off:off+arity])
	}
	return b
}

// checkPlans asserts what a plan promises of every unfilled leaf that has
// one: its steps tile the leaf's rows, none is empty or continues the one
// before, and every step naming a source names a leaf whose block is
// filled and whose rows there are the leaf's. It returns the sources the
// plans name.
func checkPlans(t *testing.T, leaves []*snapLeaf, arity int, where string) map[*snapLeaf]bool {
	t.Helper()
	sources := map[*snapLeaf]bool{}
	for k, l := range leaves {
		e := l.enc.Load()
		if e == nil || e.block != nil {
			continue
		}
		at := 0
		for i, op := range e.plan {
			if op.rows <= 0 || i > 0 && op.src == e.plan[i-1].src && (op.src == nil || e.plan[i-1].from+e.plan[i-1].rows == op.from) {
				t.Fatalf("%s: leaf %d: step %d of %v is empty or continues the one before", where, k, i, e.plan)
			}
			if op.src != nil {
				src := op.src.enc.Load()
				if src == nil || src.block == nil {
					t.Fatalf("%s: leaf %d: step %d names a leaf with no block", where, k, i)
				}
				lo, hi := int(op.from)*arity, int(op.from+op.rows)*arity
				if hi > len(op.src.rows) || at+int(op.rows) > len(l.rows)/arity ||
					!slices.Equal(op.src.rows[lo:hi], l.rows[at*arity:(at+int(op.rows))*arity]) {
					t.Fatalf("%s: leaf %d: step %d (rows %d..%d of its source) does not hold the leaf's rows from %d", where, k, i, op.from, op.from+op.rows, at)
				}
				sources[op.src] = true
			}
			at += int(op.rows)
		}
		if at != len(l.rows)/arity {
			t.Fatalf("%s: leaf %d: the plan covers %d of %d rows", where, k, at, len(l.rows)/arity)
		}
	}
	return sources
}

// fillChecked fills an unfilled leaf's block and checks it against the
// leaf encoded whole, line ends included, and that the encoder was asked
// for exactly the rows the plan formats (all of them without a plan).
func fillChecked(t *testing.T, l *snapLeaf, arity int, where string) {
	t.Helper()
	e := l.enc.Load()
	if e != nil && e.block != nil {
		return
	}
	want := len(l.rows) / arity
	if e != nil {
		want = 0
		for _, op := range e.plan {
			if op.src == nil {
				want += int(op.rows)
			}
		}
	}
	formatted := 0
	f := l.fill(e, "q", arity, func(name string, arity int, rows []Value) []byte {
		formatted += len(rows) / arity
		return lineEncoder(name, arity, rows)
	})
	whole := lineEncoder("q", arity, l.rows)
	ends := make([]int32, len(l.rows)/arity)
	lineEnds(ends, whole, 0)
	if !bytes.Equal(f.block, whole) || !slices.Equal(f.ends, ends) || f.plan != nil || l.enc.Load() != f {
		t.Fatalf("%s: the filled block %q (ends %v) is not the leaf's whole encoding %q (ends %v)", where, f.block, f.ends, whole, ends)
	}
	if formatted != want {
		t.Fatalf("%s: filling formatted %d rows, the plan has %d to format", where, formatted, want)
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
	encode := lineEncoder
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
			if want := encode("feed", 2, l.rows); string(blocks[k]) != string(want) || &again[k][0] != &blocks[k][0] || &blocks[k][0] != &l.enc.Load().block[0] {
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

// resultsByVersion replays stream on a quiet workspace of its own, one
// commit per update, and returns the query's result at every version the
// replay reaches — the oracle the race tests compare each pin with.
func resultsByVersion(t *testing.T, q *cq.Query, force Strategy, stream []Update) map[uint64][][]Value {
	t.Helper()
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.RegisterQuery("q", q, Options{Force: force})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][][]Value{0: nil}
	for _, u := range stream {
		if _, err := ws.Apply(u); err != nil {
			t.Fatal(err)
		}
		want[ws.Version()] = h.Snapshot().Tuples()
	}
	return want
}

// pinMismatch describes how a pin differs from the result at its own
// version in want, or returns "" when it does not.
func pinMismatch(s *QuerySnapshot, want map[uint64][][]Value) string {
	rows, ok := want[s.Version()]
	if !ok {
		return fmt.Sprintf("pinned version %d, which the stream never reaches", s.Version())
	}
	if got := s.Tuples(); !slices.EqualFunc(got, rows, slices.Equal[[]Value]) {
		return fmt.Sprintf("pin at version %d holds %d rows %v, the result there is %d rows %v", s.Version(), len(got), got, len(rows), rows)
	}
	return ""
}

// TestSnapshotEvictionDuringCommit: EvictSnapshot takes no lock, so a
// cached snapshot can vanish between a commit's begin (which asked the
// backend for the delta on its behalf) and the handle's publish (which
// then finds nothing to advance, and drops the delta). That delta belongs
// to that one version: whatever is pinned afterwards must be the result
// at its own version, never a later snapshot patched by a stale delta. An evictor races a committer, a pinner and a lock-free
// prober whose CachedSnapshot hits re-arm the demand budget while commits
// charge it and evictions zero it; every pin is compared with the result
// the same stream produced, version for version, on a quiet workspace.
func TestSnapshotEvictionDuringCommit(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- E(x,y), T(y)")
	rng := rand.New(rand.NewSource(17))
	stream := workload.RandomStream(rng, q.Schema(), 10, 800, 0.4)
	for _, force := range []Strategy{StrategyCore, StrategyIVM} {
		t.Run(force.String(), func(t *testing.T) {
			want := resultsByVersion(t, q, force, stream)
			ws := NewWorkspace(WorkspaceOptions{})
			h, err := ws.RegisterQuery("q", q, Options{Force: force})
			if err != nil {
				t.Fatal(err)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(3)
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
					if bad := pinMismatch(h.Snapshot(), want); bad != "" {
						t.Error(bad)
						return
					}
					pins.Add(1)
				}
			}()
			go func() { // lock-free prober: each hit re-arms the budget
				defer wg.Done()
				for ; !stop.Load(); runtime.Gosched() {
					if s := h.CachedSnapshot(); s != nil {
						if bad := pinMismatch(s, want); bad != "" {
							t.Error(bad)
							return
						}
					}
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

// loadFeed returns a workspace whose "feed" query Q(x,y) :- E(x,y), T(y)
// holds result rows over a store of the given number of edges:
// E(2i, i mod edges/5) for every i < edges, and T on the first result/5
// of those y values.
func loadFeed(tb testing.TB, edges, result int) (*Workspace, *Handle) {
	tb.Helper()
	ys := edges / 5
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("feed", "Q(x,y) :- E(x,y), T(y)")
	if err != nil {
		tb.Fatal(err)
	}
	db := dyndb.New()
	for i := 0; i < edges; i++ {
		if _, err := db.Insert("E", Value(2*i), Value(i%ys)); err != nil {
			tb.Fatal(err)
		}
	}
	for y := 0; y < result/5; y++ {
		if _, err := db.Insert("T", Value(y)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := ws.Load(db); err != nil {
		tb.Fatal(err)
	}
	if got := h.Count(); got != uint64(result) {
		tb.Fatalf("feed holds %d tuples, want %d", got, result)
	}
	return ws, h
}

// feedToggles returns p fresh result rows of a loadFeed workspace, spread
// over the x range and so over the snapshot's leaves, as insertions and
// the matching deletions.
func feedToggles(edges, result, p int) (ins, del []Update) {
	for j := 0; j < p; j++ {
		x, y := Value(2*(j*edges/p+j)+1), Value(j*751%(result/5))
		ins, del = append(ins, dyndb.Insert("E", x, y)), append(del, dyndb.Delete("E", x, y))
	}
	return ins, del
}

// feedCommit commits the c-th of a cycle of one-tuple commits: even c
// inserts toggle row c/2 (mod the toggles), odd c deletes it again, so the
// result is one row up after an even c and back at its size after an odd
// one.
func feedCommit(tb testing.TB, ws *Workspace, ins, del []Update, c int) {
	u := ins[c/2%len(ins)]
	if c%2 == 1 {
		u = del[c/2%len(del)]
	}
	if ok, err := ws.Apply(u); err != nil || !ok {
		tb.Fatalf("commit %d: %v did not apply (err %v)", c, u, err)
	}
}

// TestSnapshotDemandDecaysByWork: once pins stop, every advance is charged
// the words it writes against the budget the last pin armed — what a cold
// pin writes — and the first commit to find the budget spent drops the
// cache. Counted in words and commits at 1k, 10k and 100k rows, never
// timed: the words are recomputed from the snapshots themselves (the
// leaves not pointer-shared with the version before) and must equal the
// charge; the advances before the drop write at most one budget plus one
// advance; the cache outlives the pin by at most 2·snapLeafRows·arity + 1
// commits; afterwards the handle no longer arms the backend's delta
// emission, commits leave the cache alone, and the next pin
// re-materialises. With the charge disabled the cache is never dropped and
// this test fails at every size.
func TestSnapshotDemandDecaysByWork(t *testing.T) {
	const arity = 2
	const lifetime = 2*snapLeafRows*arity + 1
	for _, result := range []int{1000, 10000, 100000} {
		t.Run(fmt.Sprintf("result=%dk", result/1000), func(t *testing.T) {
			ws, h := loadFeed(t, result, result)
			ins, del := feedToggles(result, result, 8)
			prev := h.Snapshot()
			budget := snapshotWords(prev)
			if got := h.demand.Load(); got != budget || budget != int64(1+len(prev.leaves)+result*arity) {
				t.Fatalf("the pin armed %d words, a cold pin of %d rows in %d leaves writes %d", got, result, len(prev.leaves), budget)
			}
			var written, last int64 // words the unread advances wrote; the last advance's
			advances := 0
			for c := 0; ; c++ {
				feedCommit(t, ws, ins, del, c)
				next := h.snap.Load()
				if next == nil {
					break
				}
				if advances++; advances > lifetime {
					t.Fatalf("the cache outlived the last pin by %d commits, %d words written against a budget of %d", advances, written, budget)
				}
				last = int64(1 + len(next.leaves) + rebuiltWords(prev.leaves, next.leaves) + arity) // a one-tuple delta
				written += last
				if charged := budget - h.demand.Load(); charged != written {
					t.Fatalf("advance %d: demand was charged %d words, the advances wrote %d", advances, charged, written)
				}
				prev = next
			}
			if written < budget || written > budget+last {
				t.Fatalf("dropped after %d advances wrote %d words: want at least the budget %d and at most it plus one advance (%d)", advances, written, budget, last)
			}
			t.Logf("%d rows: budget %d words, dropped after %d advances writing %d", result, budget, advances, written)
			if h.emits() {
				t.Fatal("the dropped cache still arms the backend's delta emission")
			}
			st := h.SnapshotCacheStats()
			if st.Invalidated != 1 || st.Patched != uint64(advances) || st.Misses != 1 {
				t.Fatalf("want one miss, %d patched advances and one drop: %+v", advances, st)
			}
			feedCommit(t, ws, ins, del, advances+1)
			if after := h.SnapshotCacheStats(); after != st || h.snap.Load() != nil {
				t.Fatalf("a commit after the drop touched the cache: %+v, then %+v", st, after)
			}
			if s := h.Snapshot(); s.Version() != ws.Version() || h.SnapshotCacheStats().Misses != 2 || h.demand.Load() != snapshotWords(s) {
				t.Fatal("the pin after the drop did not re-materialise a current snapshot and re-arm its budget")
			}
		})
	}
}

// TestSnapshotLaggingReaderNeverMisses: a reader that pins every k = 16
// commits of a 3k-row result lags by less than its budget — sixteen
// one-tuple advances write 16 × (1 + 24 + 2·126 + 2) ≈ 4.5k words, a cold
// pin writes ≈ 6k — so after its first pin every pin is a hit and the
// cache is never dropped. A countdown of eight commits dropped it before
// every one of them.
func TestSnapshotLaggingReaderNeverMisses(t *testing.T) {
	const result, k, rounds = 3000, 16, 40
	ws, h := loadFeed(t, result, result)
	ins, del := feedToggles(result, result, 8)
	h.Snapshot()
	for c := 0; c < k*rounds; c++ {
		feedCommit(t, ws, ins, del, c)
		if c%k == k-1 {
			if s := h.Snapshot(); s.Version() != ws.Version() || s.Len() != result {
				t.Fatalf("commit %d: pinned %d rows at version %d, want %d at %d", c, s.Len(), s.Version(), result, ws.Version())
			}
		}
	}
	if st := h.SnapshotCacheStats(); st.Misses != 1 || st.Invalidated != 0 || st.Hits != rounds || st.Patched != k*rounds {
		t.Fatalf("a reader %d commits behind: want 1 miss, %d hits, %d patched advances and no drop: %+v", k, rounds, k*rounds, st)
	}
}

// BenchmarkSnapshotLaggingReader: a reader pins the feed query once every
// lag one-tuple commits — an op is the lag commits and the pin — at 3k,
// 30k and 100k rows over the same store. It reports the share of pins
// that missed and the words charged to demand per commit. Where lag
// advances fit the budget a pin arms — judged before the loop from the
// loaded leaves: the header, the index level, the biggest leaf plus the
// toggled row, and the delta — the rule says no pin misses, and the
// benchmark fails if one does; elsewhere the misses are the rule's too.
func BenchmarkSnapshotLaggingReader(b *testing.B) {
	const edges = 100000
	for _, result := range []int{3000, 30000, 100000} {
		for _, lag := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("result=%dk/lag=%d", result/1000, lag), func(b *testing.B) {
				ws, h := loadFeed(b, edges, result)
				ins, del := feedToggles(edges, result, 8)
				s := h.Snapshot()
				biggest := 0
				for _, l := range s.leaves {
					biggest = max(biggest, len(l.rows))
				}
				advance := int64(1 + len(s.leaves) + biggest + 2*s.arity)
				fits := int64(lag)*advance <= snapshotWords(s)
				before := h.SnapshotCacheStats()
				var charged int64
				c := 0
				for b.Loop() {
					for range lag {
						feedCommit(b, ws, ins, del, c)
						c++
					}
					charged += snapshotWords(s) - h.demand.Load()
					s = h.Snapshot()
				}
				misses := h.SnapshotCacheStats().Misses - before.Misses
				if fits && misses > 0 {
					b.Fatalf("%d of %d pins missed, though %d advances of at most %d words fit the %d-word budget",
						misses, b.N, lag, advance, snapshotWords(s))
				}
				b.ReportMetric(float64(misses)/float64(b.N), "misses/pin")
				b.ReportMetric(float64(charged)/float64(c), "words/commit")
			})
		}
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

// TestSnapshotPinRace: N goroutines pinning (mixing the lock-free probe,
// whose hits re-arm the demand budget without a lock, and the full pin)
// while a writer commits — each commit charging that budget and dropping
// the cache when it is spent — and an evictor zeroes it now and then.
// Every pinned snapshot must be internally consistent and equal to the
// result at its own version; run under -race this also proves the fast
// path publishes safely.
func TestSnapshotPinRace(t *testing.T) {
	const (
		pinners = 8
		commits = 400
	)
	q := cq.MustParse("Q(x,y) :- E(x,y)")
	rng := rand.New(rand.NewSource(99))
	stream := workload.RandomStream(rng, q.Schema(), 25, commits, 0.3)
	want := resultsByVersion(t, q, StrategyAuto, stream)
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.RegisterQuery("q", q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // evictor: every few versions
		defer wg.Done()
		for next := uint64(0); !stop.Load(); runtime.Gosched() {
			if v := ws.version.Load(); v >= next {
				h.EvictSnapshot()
				next = v + 5
			}
		}
	}()
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
				if bad := pinMismatch(s, want); bad != "" {
					t.Error(bad)
					return
				}
			}
		}(p)
	}
	for _, u := range stream {
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

// TestSnapshotPlansRetainOnlyTheLastEncodedVersion: the leaves a rebuilt
// leaf's plan keeps alive are those of the last version a reader encoded,
// however many advances came since. One version of a 3k-, 30k- and
// 100k-row result is encoded, then 1,000 commits of four toggled tuples
// each are pinned and never encoded. The plans of the last version then
// name no leaf but the encoded version's, and so no more leaves than it
// had; filling the last version's blocks drops the plans, which frees
// every encoded leaf the last version does not share; and EvictSnapshot
// frees the rest.
func TestSnapshotPlansRetainOnlyTheLastEncodedVersion(t *testing.T) {
	for _, result := range []int{3000, 30000, 100000} {
		t.Run(fmt.Sprintf("result=%dk", result/1000), func(t *testing.T) {
			ws, h := loadFeed(t, result, result)
			ins, del := feedToggles(result, result, 64)
			encoded := h.Snapshot()
			encoded.Blocks(lineEncoder)
			inEncoded := make(map[*snapLeaf]bool, len(encoded.leaves))
			var alive []weak.Pointer[snapLeaf]
			for _, l := range encoded.leaves {
				inEncoded[l] = true
				alive = append(alive, weak.Make(l))
			}
			leaves := len(encoded.leaves)
			encoded = nil
			rng := rand.New(rand.NewSource(int64(result)))
			in := make([]bool, len(ins))
			for c := 0; c < 1000; c++ {
				var batch []Update
				for _, j := range rng.Perm(len(ins))[:4] {
					if in[j] = !in[j]; in[j] {
						batch = append(batch, ins[j])
					} else {
						batch = append(batch, del[j])
					}
				}
				if n, err := ws.ApplyBatch(batch); err != nil || n != len(batch) {
					t.Fatalf("commit %d netted %d of %d (err %v)", c, n, len(batch), err)
				}
				h.Snapshot()
			}
			last := h.Snapshot()
			sources := checkPlans(t, last.leaves, last.arity, "after 1,000 unread commits")
			for l := range sources {
				if !inEncoded[l] {
					t.Fatal("a plan names a leaf of a version no reader encoded")
				}
			}
			named := len(sources)
			if named == 0 || named > leaves {
				t.Fatalf("the plans name %d leaves, the encoded version had %d", named, leaves)
			}
			if st := h.SnapshotCacheStats(); st.Misses != 1 || st.Patched != 1000 {
				t.Fatalf("want one cold pin and 1,000 patched advances: %+v", st)
			}
			shared := 0
			blocks, _ := last.Blocks(lineEncoder)
			for k, l := range last.leaves {
				if string(blocks[k]) != string(lineEncoder("feed", 2, l.rows)) {
					t.Fatalf("leaf %d: the spliced block is not the leaf's encoding", k)
				}
				if inEncoded[l] {
					shared++
				}
			}
			inEncoded, sources = nil, nil
			runtime.GC()
			if freed := countFreed(alive); freed != leaves-shared {
				t.Fatalf("with the blocks filled %d of the encoded version's %d leaves are freed, want the %d the last version does not share", freed, leaves, leaves-shared)
			}
			h.EvictSnapshot()
			last, blocks = nil, nil
			runtime.GC()
			if freed := countFreed(alive); freed != leaves {
				t.Fatalf("after EvictSnapshot %d of the encoded version's %d leaves are freed", freed, leaves)
			}
			t.Logf("%d rows: the plans named %d of the encoded version's %d leaves; %d shared after 1,000 commits", result, named, leaves, shared)
		})
	}
}

// countFreed returns how many of the weakly held leaves are gone.
func countFreed(leaves []weak.Pointer[snapLeaf]) int {
	freed := 0
	for _, w := range leaves {
		if w.Value() == nil {
			freed++
		}
	}
	return freed
}
