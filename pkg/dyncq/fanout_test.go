package dyncq

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/workload"
)

// TestWorkspaceFanOutByteIdentical is the acceptance check of the
// fan-out: a K=4 mixed-strategy workspace replaying one stream in
// batches, its Load and every commit fanned out, produces byte-identical
// counts, answers, and enumeration order at every width.
func TestWorkspaceFanOutByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	stream := workload.RandomStream(rng, multiSchema(), 16, 1500, 0.35)
	init := workload.RandomDatabase(rand.New(rand.NewSource(212)), multiSchema(), 16, 80)
	run := func(width int) *Workspace {
		ws := fannedOut(width)
		for _, c := range multiSuite() {
			if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
				t.Fatal(err)
			}
		}
		if err := ws.Load(init); err != nil {
			t.Fatal(err)
		}
		if _, err := commitChunks(ws, stream, 96); err != nil {
			t.Fatal(err)
		}
		return ws
	}
	seq := run(1)
	for _, width := range []int{2, 4} {
		par := run(width)
		if got, want := par.Version(), seq.Version(); got != want {
			t.Fatalf("width=%d: version %d, width 1 %d", width, got, want)
		}
		for _, c := range multiSuite() {
			hs, hp := seq.Handle(c.name), par.Handle(c.name)
			if hp.Count() != hs.Count() {
				t.Fatalf("width=%d query %s: count %d vs %d", width, c.name, hp.Count(), hs.Count())
			}
			if hp.Answer() != hs.Answer() {
				t.Fatalf("width=%d query %s: answer diverges", width, c.name)
			}
			exactTuples(t, hs.Strategy(), "query "+c.name, hp.Tuples(), hs.Tuples())
		}
	}
}

// TestOneHandleOrderIndependentOfFanOut: a core query maintained alone,
// on a workspace that never fans out (one handle), enumerates in exactly
// the order it does beside two more core queries on a workspace whose
// every commit fans out: each handle's engine applies the same net delta,
// alone, in delta order.
func TestOneHandleOrderIndependentOfFanOut(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- E(x,y), T(y)")
	rng := rand.New(rand.NewSource(229))
	init := workload.RandomDatabase(rng, multiSchema(), 24, 120)
	stream := workload.RandomStream(rng, multiSchema(), 24, 2000, 0.35)
	run := func(others map[string]string) [][]Value {
		ws := fannedOut(4)
		h, err := ws.RegisterQuery("feed", q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, text := range others {
			if _, err := ws.Register(name, text); err != nil {
				t.Fatal(err)
			}
		}
		if err := ws.Load(init); err != nil {
			t.Fatal(err)
		}
		if _, err := commitChunks(ws, stream, 64); err != nil {
			t.Fatal(err)
		}
		return h.Tuples()
	}
	want := run(nil)
	if len(want) < 2 {
		t.Fatalf("the stream leaves %d result tuples, too few to order", len(want))
	}
	got := run(map[string]string{"star": "Q(y) :- E(x,y), T(y)", "fan": "Q(x,y) :- S(x), E(x,y)"})
	exactTuples(t, StrategyCore, "feed", got, want)
}

// TestPoolPanicReachesCommitter: a panic in one handle's work — here its
// capture hook — is re-raised on the goroutine that called Commit, inline
// and fanned out; fanned out (the batch is fanOutMin long), only once the
// pool has drained, so every other handle's hook has returned by then.
// What the workspace holds afterwards is not specified.
func TestPoolPanicReachesCommitter(t *testing.T) {
	batch := make([]Update, fanOutMin)
	for i := range batch {
		batch[i] = Insert("E", Value(i), 1)
	}
	names := []string{"a", "b", "c", "d"}
	// commit runs the batch on a fresh workspace capped at width and
	// returns what Commit panicked with and how many of the other hooks
	// had returned by then.
	commit := func(width int) (r any, returned int32) {
		ws := NewWorkspace(WorkspaceOptions{})
		ws.maxWidth = width
		var n atomic.Int32
		for _, name := range names {
			if _, err := ws.Register(name, "Q(x,y) :- E(x,y)"); err != nil {
				t.Fatal(err)
			}
			err := ws.CaptureDeltas(name, func(DeltaEvent) {
				if name == "b" {
					// Fanned out, panic last: once the other hooks have
					// returned (a second at most), and a moment later, so
					// that a pool that did not wait for the panicking
					// goroutine would return from Commit first.
					for deadline := time.Now().Add(time.Second); width > 1 && n.Load() < int32(len(names)-1) && time.Now().Before(deadline); {
						runtime.Gosched()
					}
					time.Sleep(time.Millisecond)
					panic("boom")
				}
				n.Add(1)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		defer func() { r, returned = recover(), n.Load() }()
		ws.Commit(batch)
		return nil, n.Load()
	}
	for _, width := range []int{1, 2} {
		// Which goroutine draws the panicking handle is the scheduler's
		// choice; ten commits give each a chance.
		for range 10 {
			r, returned := commit(width)
			if r != "boom" {
				t.Fatalf("width %d: Commit panicked with %v, want boom", width, r)
			}
			if width > 1 && returned != int32(len(names)-1) {
				t.Fatalf("width %d: the panic reached the caller after %d of the other %d hooks returned", width, returned, len(names)-1)
			}
		}
	}
}

// TestWorkspaceSharedIndexPoolStress is the -race stress test of the
// goroutine-safe shared index pool: K = 5 IVM handles over one schema
// all probe the shared store's indexes, building them lazily, while the
// fan-out runs their delta-joins concurrently (plus concurrent Snapshot
// readers for extra pressure). The results must match an unfanned
// replay, and every built index must still mirror its relation. Run with
// -race (the CI race job does, at GOMAXPROCS 1 and 4).
func TestWorkspaceSharedIndexPoolStress(t *testing.T) {
	queries := []struct{ name, text string }{
		{"hard", "Q(x,y) :- S(x), E(x,y), T(y)"}, // ivm by classification
		{"star", "Q(y) :- E(x,y), T(y)"},         // forced onto the pool
		{"fan", "Q(x) :- S(x), E(x,y)"},
		{"pair", "Q(x) :- S(x), T(x)"},
		{"swap", "Q(x,y) :- E(x,y), S(y)"},
	}
	init := workload.RandomDatabase(rand.New(rand.NewSource(331)), multiSchema(), 20, 150)
	stream := workload.RandomStream(rand.New(rand.NewSource(332)), multiSchema(), 20, 1200, 0.4)
	const batch = 64

	run := func(width int) *Workspace {
		ws := fannedOut(width)
		for _, q := range queries {
			h, err := ws.RegisterQuery(q.name, cq.MustParse(q.text), Options{Force: StrategyIVM})
			if err != nil {
				t.Fatal(err)
			}
			if h.Strategy() != StrategyIVM {
				t.Fatalf("query %s resolved to %v, want ivm", q.name, h.Strategy())
			}
		}
		if err := ws.Load(init); err != nil {
			t.Fatal(err)
		}
		return ws
	}

	seq := run(1)
	for from := 0; from < len(stream); from += batch {
		to := min(from+batch, len(stream))
		if _, _, err := seq.Commit(stream[from:to]); err != nil {
			t.Fatal(err)
		}
	}

	ws := run(4)
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				snap := ws.Snapshot()
				for _, q := range queries {
					s := snap.Query(q.name)
					if got := uint64(len(s.Tuples())); got != s.Count() {
						t.Errorf("query %s: %d tuples but count %d inside one snapshot", q.name, got, s.Count())
					}
					if s.Version() != snap.Version() {
						t.Errorf("query %s pinned at version %d, snapshot at %d", q.name, s.Version(), snap.Version())
					}
				}
			}
		}()
	}
	for from := 0; from < len(stream); from += batch {
		to := min(from+batch, len(stream))
		if _, _, err := ws.Commit(stream[from:to]); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()

	for _, q := range queries {
		hs, hp := seq.Handle(q.name), ws.Handle(q.name)
		if hp.Count() != hs.Count() {
			t.Fatalf("query %s: count %d fanned out vs %d inline", q.name, hp.Count(), hs.Count())
		}
		exactTuples(t, hp.Strategy(), "query "+q.name, hp.Tuples(), hs.Tuples())
	}
	if err := ws.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkspaceSnapshotPinnedDuringFanOut is the -race stress test of
// the fan-out: while one writer drives fanned-out batches, concurrent
// Snapshot
// readers must always observe one pinned version whose per-query counts
// match the precomputed state after exactly that many committed batches.
// Run with -race (the CI race job does).
func TestWorkspaceSnapshotPinnedDuringFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	stream := workload.RandomStream(rng, multiSchema(), 24, 1600, 0.35)
	const batch = 64

	// Oracle: a sequential workspace replaying the same chunks records
	// the expected per-version counts of every query.
	oracle := NewWorkspace(WorkspaceOptions{})
	for _, c := range multiSuite() {
		if _, err := oracle.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
			t.Fatal(err)
		}
	}
	type state map[string]uint64
	snapshot := func(ws *Workspace) state {
		s := make(state)
		for _, c := range multiSuite() {
			s[c.name] = ws.Handle(c.name).Count()
		}
		return s
	}
	wantAt := []state{snapshot(oracle)}
	var chunks [][]Update
	for from := 0; from < len(stream); from += batch {
		to := from + batch
		if to > len(stream) {
			to = len(stream)
		}
		chunks = append(chunks, stream[from:to])
		n, _, err := oracle.Commit(stream[from:to])
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			wantAt = append(wantAt, snapshot(oracle))
		}
	}

	ws := fannedOut(4)
	for _, c := range multiSuite() {
		if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
			t.Fatal(err)
		}
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				snap := ws.Snapshot()
				version := snap.Version()
				if version >= uint64(len(wantAt)) {
					t.Errorf("snapshot at version %d, but only %d commits exist", version, len(wantAt)-1)
					return
				}
				want := wantAt[version]
				for _, c := range multiSuite() {
					if got := snap.Query(c.name).Count(); got != want[c.name] {
						t.Errorf("version %d query %s: count %d, want %d (torn read)", version, c.name, got, want[c.name])
					}
				}
			}
		}()
	}
	for _, ch := range chunks {
		if _, _, err := ws.Commit(ch); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	if got, want := ws.Version(), uint64(len(wantAt)-1); got != want {
		t.Fatalf("final version %d, want %d", got, want)
	}
	final := wantAt[len(wantAt)-1]
	for _, c := range multiSuite() {
		if got := ws.Handle(c.name).Count(); got != final[c.name] {
			t.Fatalf("final count of %s = %d, want %d", c.name, got, final[c.name])
		}
	}
}

// BenchmarkCommitFanOut measures the fan-out rule on a 100k-tuple store:
// width ∈ {1, 2} (the cap NewWorkspace takes from GOMAXPROCS) × batch ∈
// {1, 16, 32, 64, 256, 512, 4096}, for the core query set (star, feed, deep:
// three handles for a commit to fan out over), for the core query feed
// alone and for the ivm query hard (one handle each: a one-handle
// workspace never fans out). Below fanOutMin width 2 runs inline, as
// width 1 does; the core set's width=2-forced cells fan those batches out
// anyway, which is where fanOutMin's crossover is read. Batches toggle
// tuples drawn from the store's own distribution and then undo them, so
// the store stays at its loaded size; ns/update is wall-clock per net
// update.
func BenchmarkCommitFanOut(b *testing.B) {
	const n = 100_000
	sets := []struct {
		name    string
		shape   memoryShape
		queries map[string]string
		draw    func(rng *rand.Rand) Update
	}{
		{"core", memoryShapes[0], map[string]string{
			"star": "Q(y) :- E(x,y), T(y)",
			"feed": "Q(x,y) :- E(x,y), T(y)",
			"deep": "Q(x,y,z) :- R(x,y,z), E(x,y), S(x)",
		}, coreDraw(n)},
		{"feed", memoryShapes[0], map[string]string{
			"feed": "Q(x,y) :- E(x,y), T(y)",
		}, coreDraw(n)},
		{"ivm", memoryShapes[1], map[string]string{
			"hard": "Q(x,y) :- S(x), E(x,y), T(y)",
		}, ivmDraw(n)},
	}
	type cell struct {
		name             string
		width, minFanOut int
	}
	for _, set := range sets {
		db := dyndb.New()
		set.shape.fill(db, n)
		for _, batch := range []int{1, 16, 32, 64, 256, 512, 4096} {
			cycle := toggleCycle(b, db.Clone(), batch, max(2, 16384/batch), set.draw)
			cells := []cell{{"width=1", 1, fanOutMin}, {"width=2", 2, fanOutMin}}
			if len(set.queries) > 1 && batch < fanOutMin {
				cells = append(cells, cell{"width=2-forced", 2, 1})
			}
			for _, c := range cells {
				b.Run(fmt.Sprintf("%s/batch=%d/%s", set.name, batch, c.name), func(b *testing.B) {
					ws := loadQueries(b, set.queries, db)
					ws.maxWidth, ws.minFanOut = c.width, c.minFanOut
					benchCommits(b, ws, cycle, batch)
				})
			}
		}
	}
}

// ivmDraw draws an insert from the ingest-ivm shape's distribution at a
// store of about n tuples: E 60 %, S 20 %, T 20 % over its n/51 keys.
func ivmDraw(n int) func(rng *rand.Rand) Update {
	keys := int64(n / 51)
	return func(rng *rand.Rand) Update {
		switch p := rng.Intn(100); {
		case p < 60:
			return dyndb.Insert("E", rng.Int63n(keys), rng.Int63n(keys))
		case p < 80:
			return dyndb.Insert("S", rng.Int63n(keys))
		default:
			return dyndb.Insert("T", rng.Int63n(keys))
		}
	}
}
