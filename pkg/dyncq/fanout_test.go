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

// TestOneHandleOrderIndependentOfFanOut: a core query maintained alone
// enumerates in exactly the order it does beside two more core queries
// that the same commits fan out to: each handle's engine applies the same
// net delta, alone, in delta order.
func TestOneHandleOrderIndependentOfFanOut(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- E(x,y), T(y)")
	rng := rand.New(rand.NewSource(229))
	init := workload.RandomDatabase(rng, multiSchema(), 24, 120)
	stream := workload.RandomStream(rng, multiSchema(), 24, 2000, 0.35)
	run := func(others map[string]string) [][]Value {
		ws := NewWorkspace(WorkspaceOptions{})
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
// capture hook — reaches the goroutine that called Commit, and the
// workspace lock is released on the way out, so the next Commit does not
// deadlock. What the workspace holds afterwards is not specified.
func TestPoolPanicReachesCommitter(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	armed := true
	for _, name := range []string{"a", "b", "c"} {
		if _, err := ws.Register(name, "Q(x,y) :- E(x,y)"); err != nil {
			t.Fatal(err)
		}
		err := ws.CaptureDeltas(name, func(DeltaEvent) {
			if name == "b" && armed {
				panic("boom")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	commit := func(u Update) (r any) {
		defer func() { r = recover() }()
		ws.Commit([]Update{u})
		return nil
	}
	if r := commit(Insert("E", 1, 1)); r != "boom" {
		t.Fatalf("Commit panicked with %v, want boom", r)
	}
	armed = false
	done := make(chan any, 1)
	go func() { done <- commit(Insert("E", 2, 2)) }()
	select {
	case r := <-done:
		if r != nil {
			t.Fatalf("the Commit after the panic panicked with %v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the Commit after the panic did not return: the workspace lock is still held")
	}
}

// TestCommitRunsOnCallerGoroutine: every handle's maintenance, capture
// hook included, runs on the goroutine that called Load or Commit —
// also where several CPUs, several queries and a large write could
// spread it over goroutines. Each hook finds the test function on its own
// call stack. The first hook of each write sleeps, so that work handed to
// another goroutine would be claimed there meanwhile.
func TestCommitRunsOnCallerGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pc, _, _, _ := runtime.Caller(0)
	self := runtime.FuncForPC(pc).Name()
	onCaller := func() bool {
		pcs := make([]uintptr, 128)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
		for {
			f, more := frames.Next()
			if f.Function == self {
				return true
			}
			if !more {
				return false
			}
		}
	}
	ws := NewWorkspace(WorkspaceOptions{})
	names := []string{"star", "feed", "deep"}
	texts := []string{"Q(y) :- E(x,y), T(y)", "Q(x,y) :- E(x,y), T(y)", "Q(x,y,z) :- R(x,y,z), E(x,y), S(x)"}
	var calls, elsewhere int
	var mu sync.Mutex // guards the counts, should a hook run on another goroutine
	for i, name := range names {
		h, err := ws.Register(name, texts[i])
		if err != nil {
			t.Fatal(err)
		}
		if h.Strategy() != StrategyCore {
			t.Fatalf("%s routed to %v, want core", name, h.Strategy())
		}
		err = ws.CaptureDeltas(name, func(DeltaEvent) {
			mu.Lock()
			calls++
			first := calls%len(names) == 1
			if !onCaller() {
				elsewhere++
			}
			mu.Unlock()
			if first {
				time.Sleep(time.Millisecond)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	db := dyndb.New()
	for i := 0; i < 2048; i++ {
		db.Insert("E", Value(i%500), Value(i%40))
		db.Insert("T", Value(i%40))
		db.Insert("S", Value(i%500))
		db.Insert("R", Value(i%500), Value(i%40), Value(i))
	}
	if err := ws.Load(db); err != nil {
		t.Fatal(err)
	}
	batch := make([]Update, 512)
	for i := range batch {
		batch[i] = Insert("E", Value(1000+i), Value(i%40))
	}
	if n, _, err := ws.Commit(batch); err != nil || n != len(batch) {
		t.Fatalf("commit netted %d of %d (err %v)", n, len(batch), err)
	}
	if want := 2 * len(names); calls != want || elsewhere != 0 {
		t.Fatalf("%d hook calls, %d of them off the calling goroutine; want %d and 0", calls, elsewhere, want)
	}
}

// TestWorkspaceSharedIndexPoolStress is the -race stress test of the
// shared store's indexes: K = 5 IVM handles over one schema all probe
// them, building them lazily, inside commits that race concurrent
// Snapshot readers. The results must match a replay without readers, and
// every built index must still mirror its relation. Run with -race (the
// CI race job does, at GOMAXPROCS 1 and 4).
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

	run := func() *Workspace {
		ws := NewWorkspace(WorkspaceOptions{})
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

	seq := run()
	for from := 0; from < len(stream); from += batch {
		to := min(from+batch, len(stream))
		if _, _, err := seq.Commit(stream[from:to]); err != nil {
			t.Fatal(err)
		}
	}

	ws := run()
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
			t.Fatalf("query %s: count %d beside readers vs %d alone", q.name, hp.Count(), hs.Count())
		}
		exactTuples(t, hp.Strategy(), "query "+q.name, hp.Tuples(), hs.Tuples())
	}
	if err := ws.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkspaceSnapshotPinnedDuringFanOut is the -race stress test of
// the fan-out: while one writer drives batches to every query, concurrent
// Snapshot readers must always observe one pinned version whose
// per-query counts match the precomputed state after exactly that many
// committed batches. Run with -race (the CI race job does).
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

	ws := NewWorkspace(WorkspaceOptions{})
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

// BenchmarkCommitBatch measures a commit on a 100k-tuple store across
// batch ∈ {1, 16, 32, 64, 256, 512, 4096}, for the core query set (star,
// feed, deep: three handles the commit fans out to), for the core query
// feed alone and for the ivm query hard. Batches toggle tuples drawn from
// the store's own distribution and then undo them, so the store stays at
// its loaded size; ns/update is wall-clock per net update.
func BenchmarkCommitBatch(b *testing.B) {
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
	for _, set := range sets {
		db := dyndb.New()
		set.shape.fill(db, n)
		for _, batch := range []int{1, 16, 32, 64, 256, 512, 4096} {
			cycle := toggleCycle(b, db.Clone(), batch, max(2, 16384/batch), set.draw)
			b.Run(fmt.Sprintf("%s/batch=%d", set.name, batch), func(b *testing.B) {
				benchCommits(b, loadQueries(b, set.queries, db), cycle, batch)
			})
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
