package dyncq

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
)

// TestConcurrentSnapshotReaders is the prefix-consistency stress test:
// one writer commits a known sequence of batches while reader goroutines
// continuously pin snapshots; every snapshot must equal the state
// after exactly version committed batches — never a torn mid-batch
// state. Run with -race (the CI race job does).
func TestConcurrentSnapshotReaders(t *testing.T) {
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	rng := rand.New(rand.NewSource(59))
	stream := workload.RandomStream(rng, q.Schema(), 30, 1200, 0.35)
	const batch = 40
	// Precompute the expected (count, cardinality) after every batch
	// prefix with an oracle workspace. Entry 0 is the empty state. Batches
	// that net to zero changes do not bump the version, so record the
	// expectation per committed version, not per submitted batch.
	oracle, oracleH := solo(t, q, Options{})
	type state struct {
		count uint64
		card  int
	}
	wantAt := []state{{0, 0}}
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
			wantAt = append(wantAt, state{oracleH.Count(), oracle.Cardinality()})
		}
	}

	cs, h := solo(t, q, Options{})
	var done atomic.Bool
	var wg sync.WaitGroup
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				s := h.Snapshot()
				version := s.Version()
				if version >= uint64(len(wantAt)) {
					t.Errorf("snapshot at version %d, but only %d commits exist", version, len(wantAt)-1)
					continue
				}
				want := wantAt[version]
				if got := s.Count(); got != want.count {
					t.Errorf("version %d: count %d, want %d (torn read)", version, got, want.count)
				}
				if got := s.Cardinality(); got != want.card {
					t.Errorf("version %d: |D| %d, want %d (torn read)", version, got, want.card)
				}
			}
		}()
	}
	for _, ch := range chunks {
		if _, _, err := cs.Commit(ch); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	if got, want := cs.Version(), uint64(len(wantAt)-1); got != want {
		t.Fatalf("final version %d, want %d", got, want)
	}
	final := wantAt[len(wantAt)-1]
	if h.Count() != final.count {
		t.Fatalf("final count %d, want %d", h.Count(), final.count)
	}
}

// TestConcurrentWriters: multiple writer goroutines apply disjoint
// slices of one net batch (a net batch holds one command per tuple, so
// any split of it commutes) while readers continuously check internal
// consistency; the final state must match the static oracle. Run with
// -race.
func TestConcurrentWriters(t *testing.T) {
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	rng := rand.New(rand.NewSource(61))
	init := workload.RandomDatabase(rng, q.Schema(), 40, 150)
	// A net batch: net a random stream against init so the slices commute.
	net, err := init.Clone().NetDelta(workload.RandomStream(rng, q.Schema(), 40, 2000, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4

	cs, h := solo(t, q, Options{})
	if err := cs.Load(init); err != nil {
		t.Fatal(err)
	}
	var parts [][]Update
	for w := 0; w < writers; w++ {
		parts = append(parts, net[w*len(net)/writers:(w+1)*len(net)/writers])
	}
	var writerWG, readerWG sync.WaitGroup
	var done atomic.Bool
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for !done.Load() {
				s := h.Snapshot()
				if got, want := uint64(len(s.Tuples())), s.Count(); got != want {
					t.Errorf("reader saw %d tuples but count %d", got, want)
				}
			}
		}()
	}
	for _, part := range parts {
		writerWG.Add(1)
		go func(part []Update) {
			defer writerWG.Done()
			if _, err := commitChunks(cs, part, 100); err != nil {
				t.Error(err)
			}
		}(part)
	}
	writerWG.Wait()
	done.Store(true)
	readerWG.Wait()

	// Final state must equal the oracle: init plus the net batch.
	db := init.Clone()
	if err := db.ApplyAll(net); err != nil {
		t.Fatal(err)
	}
	want := eval.Evaluate(q, db)
	if got := h.Count(); got != uint64(want.Len()) {
		t.Fatalf("final count %d, oracle %d", got, want.Len())
	}
	if !sameTuples(h.Tuples(), want.Tuples()) {
		t.Fatal("final tuples disagree with oracle")
	}
}
