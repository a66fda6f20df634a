package dyncq

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/workload"
)

// TestWorkspaceFanOutByteIdentical is the acceptance check of the
// sharded storage core: a K=4 mixed-strategy workspace replaying one
// stream in batches produces byte-identical counts, answers, and
// enumeration order at every worker count (the engines pinned to one
// shard count so their enumeration order is comparable), while the
// store phase runs over a sharded store rather than one map.
func TestWorkspaceFanOutByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	stream := workload.RandomStream(rng, multiSchema(), 16, 1500, 0.35)
	init := workload.RandomDatabase(rand.New(rand.NewSource(212)), multiSchema(), 16, 80)
	run := func(workers int) *Workspace {
		ws := NewWorkspace(WorkspaceOptions{Workers: workers, StoreShards: 8})
		for _, c := range multiSuite() {
			opt := c.opt
			opt.Shards = 8 // identical shard count ⇒ identical enumeration order
			if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), opt); err != nil {
				t.Fatal(err)
			}
		}
		if err := ws.Load(init); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.ApplyBatched(stream, 96); err != nil {
			t.Fatal(err)
		}
		return ws
	}
	seq := run(1)
	for _, workers := range []int{2, 4} {
		par := run(workers)
		p := par.Parallelism()
		if p.StoreShards != 8 {
			t.Fatalf("workers=%d: store shards %d, want 8 (store phase not sharded)", workers, p.StoreShards)
		}
		if p.Workers != workers {
			t.Fatalf("Parallelism().Workers = %d, want %d", p.Workers, workers)
		}
		if got, want := par.Version(), seq.Version(); got != want {
			t.Fatalf("workers=%d: version %d, sequential %d", workers, got, want)
		}
		for _, c := range multiSuite() {
			hs, hp := seq.Handle(c.name), par.Handle(c.name)
			if hp.Count() != hs.Count() {
				t.Fatalf("workers=%d query %s: count %d vs %d", workers, c.name, hp.Count(), hs.Count())
			}
			if hp.Answer() != hs.Answer() {
				t.Fatalf("workers=%d query %s: answer diverges", workers, c.name)
			}
			exactTuples(t, hs.Strategy(), "query "+c.name, hp.Tuples(), hs.Tuples())
		}
	}
}

// TestWorkspaceParallelismIntrospection: the effective worker/shard
// counts come from the structures, not from re-derived heuristics.
func TestWorkspaceParallelismIntrospection(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{Workers: 2})
	for _, c := range multiSuite() {
		if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
			t.Fatal(err)
		}
	}
	p := ws.Parallelism()
	if p.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", p.Workers)
	}
	if p.StoreShards != 8 { // derived 4×Workers
		t.Fatalf("StoreShards = %d, want 8", p.StoreShards)
	}
	if p.QueryShards["star"] != 8 { // core engine, derived 4×Workers
		t.Fatalf("star shards = %d, want 8", p.QueryShards["star"])
	}
	if p.QueryShards["hard"] != 0 { // ivm: sharding does not apply
		t.Fatalf("hard shards = %d, want 0", p.QueryShards["hard"])
	}
	if p.QueryShards["scan"] != 0 { // ivm (forced)
		t.Fatalf("scan shards = %d, want 0", p.QueryShards["scan"])
	}
}

// TestWorkspaceSharedIndexPoolStress is the -race stress test of the
// goroutine-safe shared index pool: K = 5 IVM handles over one schema
// all probe the shared store's indexes, building them lazily, while the
// parallel fan-out runs their delta-joins concurrently (plus concurrent
// View readers for extra pressure). The results must match a sequential
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

	run := func(workers int) *Workspace {
		ws := NewWorkspace(WorkspaceOptions{Workers: workers})
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
		if _, err := seq.ApplyBatch(stream[from:to]); err != nil {
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
				ws.View(func(v *WorkspaceView) {
					version := v.Version()
					for _, q := range queries {
						if a, b := v.Count(q.name), v.Count(q.name); a != b {
							t.Errorf("query %s: count moved inside a snapshot: %d -> %d", q.name, a, b)
						}
					}
					if v.Version() != version {
						t.Errorf("version moved inside a snapshot: %d -> %d", version, v.Version())
					}
				})
			}
		}()
	}
	for from := 0; from < len(stream); from += batch {
		to := min(from+batch, len(stream))
		if _, err := ws.ApplyBatch(stream[from:to]); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()

	for _, q := range queries {
		hs, hp := seq.Handle(q.name), ws.Handle(q.name)
		if hp.Count() != hs.Count() {
			t.Fatalf("query %s: count %d parallel vs %d sequential", q.name, hp.Count(), hs.Count())
		}
		exactTuples(t, hp.Strategy(), "query "+q.name, hp.Tuples(), hs.Tuples())
	}
	if err := ws.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkspaceViewPinnedDuringFanOut is the -race stress test of the
// sharded storage core: while one writer drives parallel batches
// (sharded store application + per-handle fan-out + per-engine shard
// workers), concurrent View readers must always observe one pinned
// version whose per-query counts match the precomputed state after
// exactly that many committed batches. Run with -race (the CI race job
// does).
func TestWorkspaceViewPinnedDuringFanOut(t *testing.T) {
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
		n, err := oracle.ApplyBatch(stream[from:to])
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			wantAt = append(wantAt, snapshot(oracle))
		}
	}

	ws := NewWorkspace(WorkspaceOptions{Workers: 4})
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
				ws.View(func(v *WorkspaceView) {
					version := v.Version()
					if version >= uint64(len(wantAt)) {
						t.Errorf("snapshot at version %d, but only %d commits exist", version, len(wantAt)-1)
						return
					}
					want := wantAt[version]
					for _, c := range multiSuite() {
						if got := v.Count(c.name); got != want[c.name] {
							t.Errorf("version %d query %s: count %d, want %d (torn read)", version, c.name, got, want[c.name])
						}
					}
					if v.Version() != version {
						t.Errorf("version moved inside a snapshot: %d -> %d", version, v.Version())
					}
				})
			}
		}()
	}
	for _, ch := range chunks {
		if _, err := ws.ApplyBatch(ch); err != nil {
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
