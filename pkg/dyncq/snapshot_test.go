package dyncq

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/workload"
)

// replayOracle maintains a plain map-of-sets replica from delta events,
// checking each event's internal consistency as it applies.
type replayOracle struct {
	tuples map[string]bool
}

func newReplayOracle() *replayOracle { return &replayOracle{tuples: make(map[string]bool)} }

func (r *replayOracle) apply(t *testing.T, ev DeltaEvent) {
	t.Helper()
	for _, tup := range ev.Added {
		k := fmt.Sprint(tup)
		if r.tuples[k] {
			t.Fatalf("version %d: delta adds %v already present", ev.Version, tup)
		}
		r.tuples[k] = true
	}
	for _, tup := range ev.Removed {
		k := fmt.Sprint(tup)
		if !r.tuples[k] {
			t.Fatalf("version %d: delta removes %v not present", ev.Version, tup)
		}
		delete(r.tuples, k)
	}
}

func (r *replayOracle) matches(t *testing.T, tuples [][]Value, where string) {
	t.Helper()
	if len(tuples) != len(r.tuples) {
		t.Fatalf("%s: replica has %d tuples, live result %d", where, len(r.tuples), len(tuples))
	}
	for _, tup := range tuples {
		if !r.tuples[fmt.Sprint(tup)] {
			t.Fatalf("%s: live result tuple %v missing from delta replica", where, tup)
		}
	}
}

// cloneEvent copies ev's tuples out of the workspace, which lends them
// only until its next write: a hook that keeps events calls it.
func cloneEvent(ev DeltaEvent) DeltaEvent {
	clone := func(ts [][]Value) [][]Value {
		var out [][]Value
		for _, t := range ts {
			out = append(out, slices.Clone(t))
		}
		return out
	}
	ev.Added, ev.Removed = clone(ev.Added), clone(ev.Removed)
	return ev
}

// TestCaptureDeltasReplay: replaying the per-commit delta stream
// reconstructs the query result exactly, across single updates,
// batches, and every backend strategy. The hook keeps every event until
// the stream ends, so it clones each (the event's tuples are lent until
// the next write).
func TestCaptureDeltasReplay(t *testing.T) {
	for _, force := range []Strategy{StrategyAuto, StrategyIVM} {
		t.Run(force.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(417))
			ws := NewWorkspace(WorkspaceOptions{})
			q := cq.MustParse("Q(y) :- E(x,y), T(y)")
			h, err := ws.RegisterQuery("q", q, Options{Force: force})
			if err != nil {
				t.Fatal(err)
			}
			// Pre-capture state: the capture baseline must absorb it.
			if _, _, err := ws.Commit(workload.RandomStream(rng, q.Schema(), 20, 120, 0.3)); err != nil {
				t.Fatal(err)
			}
			replica := newReplayOracle()
			for _, tup := range h.Tuples() {
				replica.tuples[fmt.Sprint(tup)] = true
			}
			var events []DeltaEvent
			if err := ws.CaptureDeltas("q", func(ev DeltaEvent) { events = append(events, cloneEvent(ev)) }); err != nil {
				t.Fatal(err)
			}
			if err := ws.CaptureDeltas("q", func(DeltaEvent) {}); err == nil {
				t.Fatal("second CaptureDeltas on the same query succeeded")
			}
			stream := workload.RandomStream(rng, q.Schema(), 20, 600, 0.4)
			for i := 0; i < len(stream); i += 37 {
				end := i + 37
				if end > len(stream) {
					end = len(stream)
				}
				if _, _, err := ws.Commit(stream[i:end]); err != nil {
					t.Fatal(err)
				}
			}
			for _, u := range stream[:40] {
				if _, _, err := ws.Commit([]Update{u}); err != nil {
					t.Fatal(err)
				}
			}
			wantVersion := ws.Version()
			last := uint64(0)
			for _, ev := range events {
				if ev.Version <= last {
					t.Fatalf("event versions not strictly increasing: %d after %d", ev.Version, last)
				}
				last = ev.Version
				replica.apply(t, ev)
			}
			if last != wantVersion {
				t.Fatalf("last event at version %d, workspace at %d", last, wantVersion)
			}
			replica.matches(t, h.Tuples(), "after stream")

			// Load resets: the delta stream must bridge it too.
			events = events[:0]
			db := dyndb.New()
			for _, u := range workload.RandomDatabase(rng, q.Schema(), 15, 80).Updates() {
				if _, err := db.Apply(u); err != nil {
					t.Fatal(err)
				}
			}
			if err := ws.Load(db); err != nil {
				t.Fatal(err)
			}
			if len(events) != 1 {
				t.Fatalf("Load emitted %d events, want 1", len(events))
			}
			replica.apply(t, events[0])
			replica.matches(t, h.Tuples(), "after load")

			if !ws.StopDeltaCapture("q") {
				t.Fatal("StopDeltaCapture found no active capture")
			}
			events = events[:0]
			if _, _, err := ws.Commit(stream[:50]); err != nil {
				t.Fatal(err)
			}
			if len(events) != 0 {
				t.Fatalf("%d events delivered after StopDeltaCapture", len(events))
			}
		})
	}
}

// TestCaptureDeltasEveryVersion: every committed version emits exactly
// one event per captured query, even when that query's result did not
// change — subscribers track versions in lockstep.
func TestCaptureDeltasEveryVersion(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	if _, err := ws.Register("q", "Q(y) :- E(x,y), T(y)"); err != nil {
		t.Fatal(err)
	}
	var versions []uint64
	if err := ws.CaptureDeltas("q", func(ev DeltaEvent) { versions = append(versions, ev.Version) }); err != nil {
		t.Fatal(err)
	}
	// E-tuples without matching T never change the result, but each
	// commit still advances the version.
	for i := 0; i < 5; i++ {
		if _, _, err := ws.Commit([]Update{Insert("E", Value(i), Value(i+100))}); err != nil {
			t.Fatal(err)
		}
	}
	if len(versions) != 5 {
		t.Fatalf("got %d events over 5 commits, want 5", len(versions))
	}
	for i := 1; i < len(versions); i++ {
		if versions[i] != versions[i-1]+1 {
			t.Fatalf("event versions %v not consecutive", versions)
		}
	}
}

// TestCaptureDeltasBoolean: an arity-0 query takes the native delta on
// every strategy. Its event carries the empty tuple, in Added when the
// answer turns true and in Removed when it turns false, through single
// updates, batches and a Load in each direction; a commit that turns the
// answer off and on again emits an empty event. A Boolean snapshot pinned
// at every version advances by that delta: its Count and Answer match the
// live handle, and every advance is a patch.
func TestCaptureDeltasBoolean(t *testing.T) {
	filler := []Update{dyndb.Insert("E", 1, 2)}
	for i := 0; i < 12; i++ { // keeps IVM's crossover on the delta-join side after the first batch
		filler = append(filler, dyndb.Insert("E", Value(10+i), Value(100+i)))
	}
	for _, force := range []Strategy{StrategyCore, StrategyIVM} {
		t.Run(force.String(), func(t *testing.T) {
			ws := NewWorkspace(WorkspaceOptions{})
			h, err := ws.RegisterQuery("b", cq.MustParse("Q() :- E(x,y), T(y)"), Options{Force: force})
			if err != nil {
				t.Fatal(err)
			}
			var events []DeltaEvent
			if err := ws.CaptureDeltas("b", func(ev DeltaEvent) { events = append(events, ev) }); err != nil {
				t.Fatal(err)
			}
			pin := h.Snapshot()
			steps := 0
			// step runs one write and checks its one event, the pin taken
			// before it and a fresh pin after it.
			step := func(where string, write func() error, added, removed int) {
				t.Helper()
				n, before := len(events), pin.Answer()
				if err := write(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				steps++
				if len(events) != n+1 {
					t.Fatalf("%s: %d events, want 1", where, len(events)-n)
				}
				ev := events[n]
				if ev.Version != ws.Version() || len(ev.Added) != added || len(ev.Removed) != removed {
					t.Fatalf("%s: event %+v at workspace version %d, want +%d −%d", where, ev, ws.Version(), added, removed)
				}
				for _, tup := range append(ev.Added, ev.Removed...) {
					if len(tup) != 0 {
						t.Fatalf("%s: event tuple %v, want the empty tuple", where, tup)
					}
				}
				if pin.Answer() != before {
					t.Fatalf("%s: the snapshot pinned at version %d changed its answer", where, pin.Version())
				}
				pin = h.Snapshot()
				if pin.Version() != ws.Version() || pin.Answer() != h.Answer() || pin.Count() != h.Count() || pin.Len() != int(h.Count()) {
					t.Fatalf("%s: snapshot at version %d answers %v (count %d), the handle at version %d %v (count %d)",
						where, pin.Version(), pin.Answer(), pin.Count(), ws.Version(), h.Answer(), h.Count())
				}
			}
			batch := func(us ...Update) func() error {
				return func() error { _, _, err := ws.Commit(us); return err }
			}
			apply := func(u Update) func() error {
				return func() error { _, _, err := ws.Commit([]Update{u}); return err }
			}
			load := func(us ...Update) func() error {
				db := NewDatabase()
				for _, u := range us {
					if _, err := db.Apply(u); err != nil {
						t.Fatal(err)
					}
				}
				return func() error { return ws.Load(db) }
			}
			step("filler", batch(filler...), 0, 0)
			step("a batch turning the answer on", batch(dyndb.Insert("T", 2), dyndb.Insert("E", 3, 4)), 1, 0)
			step("an update turning it off", apply(dyndb.Delete("T", 2)), 0, 1)
			step("an update with no flip", apply(dyndb.Insert("E", 5, 6)), 0, 0)
			step("an update turning it on", apply(dyndb.Insert("T", 2)), 1, 0)
			// T(2) goes first: the answer is off until T(4) meets E(3,4).
			step("a commit turning it off and on again", batch(dyndb.Delete("T", 2), dyndb.Insert("T", 4)), 0, 0)
			step("a Load turning it off", load(filler...), 0, 1)
			step("a Load turning it on", load(append(filler, dyndb.Insert("T", 2))...), 1, 0)
			step("a Load keeping it on", load(dyndb.Insert("E", 7, 8), dyndb.Insert("T", 8)), 0, 0)
			if st := h.SnapshotCacheStats(); st.Patched != uint64(steps) || st.Rebuilt != 0 || st.Misses != 1 {
				t.Fatalf("want every one of %d commits to patch the pinned snapshot and one miss: %+v", steps, st)
			}
		})
	}
}

// TestSnapshotDoesNotBlockWriter is acceptance criterion (b) at the
// library layer: an enumeration held open on a pinned snapshot — the
// reader asleep mid-iteration — must not block a concurrent Commit.
// The write is time-bounded; with the old read-locked View semantics it
// would wait for the whole sleep.
func TestSnapshotDoesNotBlockWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ws := NewWorkspace(WorkspaceOptions{})
	q := cq.MustParse("Q(x,y) :- E(x,y)")
	h, err := ws.RegisterQuery("q", q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.Commit(workload.RandomStream(rng, q.Schema(), 40, 400, 0.1)); err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot()
	if snap.Len() == 0 {
		t.Fatal("empty result; workload too sparse for the test")
	}

	readerHolding := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		seen := 0
		snap.Enumerate(func(tuple []Value) bool {
			seen++
			if seen == 1 {
				close(readerHolding)
				time.Sleep(600 * time.Millisecond) // mid-iteration stall
			}
			return true
		})
		if seen != snap.Len() {
			t.Errorf("enumerated %d tuples, snapshot has %d", seen, snap.Len())
		}
	}()

	<-readerHolding
	start := time.Now()
	if _, _, err := ws.Commit(workload.RandomStream(rng, q.Schema(), 40, 200, 0.5)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("Commit took %v while a snapshot reader slept: snapshot readers must not block writers", elapsed)
	}
	preVersion := snap.Version()
	if ws.Version() <= preVersion {
		t.Fatalf("version did not advance past pinned %d", preVersion)
	}
	<-readerDone
	// The pinned snapshot still describes the old state.
	if snap.Version() != preVersion {
		t.Fatal("snapshot version moved")
	}
}

// TestWorkspaceSnapshotIsPinned: a workspace snapshot taken before a
// batch keeps answering from the pinned state after the batch commits,
// and holding it never blocks a writer.
func TestWorkspaceSnapshotIsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := NewWorkspace(WorkspaceOptions{})
	q := cq.MustParse("Q(x) :- E(x,y)")
	if _, err := ws.RegisterQuery("q", q, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.Commit(workload.RandomStream(rng, q.Schema(), 30, 200, 0.2)); err != nil {
		t.Fatal(err)
	}
	snap := ws.Snapshot()
	before, rows := snap.Query("q").Count(), snap.Query("q").Tuples()
	version := snap.Version()
	// A write while the snapshot is held: legal under MVCC. The fresh x
	// guarantees the live result moves.
	batch := append(workload.RandomStream(rng, q.Schema(), 30, 100, 0.9), Insert("E", 1000, 1))
	if _, _, err := ws.Commit(batch); err != nil {
		t.Fatal(err)
	}
	if ws.Version() != version+1 {
		t.Fatalf("workspace version %d, want %d", ws.Version(), version+1)
	}
	if ws.Handle("q").Count() == before {
		t.Fatal("the batch did not change the live count; the pin is untested")
	}
	pinned := snap.Query("q")
	if pinned.Count() != before || snap.Version() != version || !reflect.DeepEqual(pinned.Tuples(), rows) {
		t.Fatal("snapshot observed a write committed after it was pinned")
	}
}

// TestSnapshotReadersUnderWriterLoad: many snapshot readers against a
// committing writer, each read observing a fully consistent pinned
// state. Run with -race.
func TestSnapshotReadersUnderWriterLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	cs, h := solo(t, q, Options{})
	stream := workload.RandomStream(rng, q.Schema(), 25, 2000, 0.35)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				if got := uint64(len(snap.Tuples())); got != snap.Count() {
					t.Errorf("snapshot: %d tuples but count %d", got, snap.Count())
					return
				}
			}
		}()
	}
	for i := 0; i < len(stream); i += 100 {
		end := i + 100
		if end > len(stream) {
			end = len(stream)
		}
		if _, _, err := cs.Commit(stream[i:end]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
