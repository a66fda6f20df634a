package dyncq

import (
	"fmt"
	"math/rand"
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

// TestCaptureDeltasReplay: replaying the per-commit delta stream
// reconstructs the query result exactly, across single updates,
// batches, and every backend strategy.
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
			if _, err := ws.ApplyBatch(workload.RandomStream(rng, q.Schema(), 20, 120, 0.3)); err != nil {
				t.Fatal(err)
			}
			replica := newReplayOracle()
			for _, tup := range h.Tuples() {
				replica.tuples[fmt.Sprint(tup)] = true
			}
			var events []DeltaEvent
			if err := ws.CaptureDeltas("q", func(ev DeltaEvent) { events = append(events, ev) }); err != nil {
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
				if _, err := ws.ApplyBatch(stream[i:end]); err != nil {
					t.Fatal(err)
				}
			}
			for _, u := range stream[:40] {
				if _, err := ws.Apply(u); err != nil {
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
			if _, err := ws.ApplyBatch(stream[:50]); err != nil {
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
		if _, err := ws.Insert("E", Value(i), Value(i+100)); err != nil {
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

// TestCaptureDeltasBoolean: arity-0 queries export their answer-bit
// flips as an empty-tuple delta.
func TestCaptureDeltasBoolean(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	if _, err := ws.Register("b", "Q() :- E(x,y), T(y)"); err != nil {
		t.Fatal(err)
	}
	var events []DeltaEvent
	if err := ws.CaptureDeltas("b", func(ev DeltaEvent) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	mustApply := func(u Update) {
		t.Helper()
		if _, err := ws.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	mustApply(dyndb.Insert("E", 1, 2))
	mustApply(dyndb.Insert("T", 2)) // answer flips to true
	mustApply(dyndb.Delete("T", 2)) // flips back
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if len(events[0].Added)+len(events[0].Removed) != 0 {
		t.Fatalf("event 0 should be empty, got %+v", events[0])
	}
	if len(events[1].Added) != 1 || len(events[1].Removed) != 0 {
		t.Fatalf("event 1 should add the empty tuple, got %+v", events[1])
	}
	if len(events[2].Added) != 0 || len(events[2].Removed) != 1 {
		t.Fatalf("event 2 should remove the empty tuple, got %+v", events[2])
	}
}

// TestSnapshotDoesNotBlockWriter is acceptance criterion (b) at the
// library layer: an enumeration held open on a pinned snapshot — the
// reader asleep mid-iteration — must not block a concurrent ApplyBatch.
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
	if _, err := ws.ApplyBatch(workload.RandomStream(rng, q.Schema(), 40, 400, 0.1)); err != nil {
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
	if _, err := ws.ApplyBatch(workload.RandomStream(rng, q.Schema(), 40, 200, 0.5)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("ApplyBatch took %v while a snapshot reader slept: snapshot readers must not block writers", elapsed)
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

// TestWorkspaceViewIsPinned: a view taken before a concurrent batch
// keeps answering from the pinned state while (and after) the batch
// commits, and f may call locking workspace methods.
func TestWorkspaceViewIsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := NewWorkspace(WorkspaceOptions{})
	q := cq.MustParse("Q(x) :- E(x,y)")
	if _, err := ws.RegisterQuery("q", q, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.ApplyBatch(workload.RandomStream(rng, q.Schema(), 30, 200, 0.2)); err != nil {
		t.Fatal(err)
	}
	ws.View(func(v *WorkspaceView) {
		before := v.Count("q")
		version := v.Version()
		// Re-entrant write from inside a view: legal under MVCC.
		if _, err := ws.ApplyBatch(workload.RandomStream(rng, q.Schema(), 30, 100, 0.9)); err != nil {
			t.Fatal(err)
		}
		if v.Count("q") != before || v.Version() != version {
			t.Fatal("view observed a write committed after it was pinned")
		}
		if ws.Version() != version+1 {
			t.Fatalf("workspace version %d, want %d", ws.Version(), version+1)
		}
	})
}

// TestSnapshotReadersUnderWriterLoad: many snapshot readers against a
// committing writer, each read observing a fully consistent pinned
// state. Run with -race.
func TestSnapshotReadersUnderWriterLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	cs, h := soloWorkers(t, 2, q, Options{})
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
		if _, err := cs.ApplyBatch(stream[i:end]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
