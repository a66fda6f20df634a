package dyncq

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
)

// TestConcurrentRouting: sharded parallel delta application engages
// exactly on the core backend with more than one worker — Parallelism
// reports the shard count a batch will actually use.
func TestConcurrentRouting(t *testing.T) {
	qh := cq.MustParse("Q(y) :- E(x,y), T(y)")
	hard := cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)")
	cases := []struct {
		q        *cq.Query
		workers  int
		opt      Options
		strategy Strategy
		shards   int
	}{
		{qh, 4, Options{}, StrategyCore, 16},
		{qh, 1, Options{}, StrategyCore, 1},
		// An explicit single-shard override forces the sequential path even
		// with workers: Parallelism must not claim otherwise.
		{qh, 4, Options{Shards: 1}, StrategyCore, 1},
		{hard, 4, Options{}, StrategyIVM, 0},
	}
	for _, c := range cases {
		ws, h := soloWorkers(t, c.workers, c.q, c.opt)
		if h.Strategy() != c.strategy {
			t.Errorf("%s workers=%d: strategy %v, want %v", c.q, c.workers, h.Strategy(), c.strategy)
		}
		if got := ws.Parallelism().QueryShards["q"]; got != c.shards {
			t.Errorf("%s workers=%d [%v]: %d query shards, want %d", c.q, c.workers, h.Strategy(), got, c.shards)
		}
	}
}

// TestConcurrentMatchesSequential: a workspace with parallel workers
// reaches exactly the state a sequential one reaches on the same stream,
// for every backend.
func TestConcurrentMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, st := range []Strategy{StrategyAuto, StrategyIVM} {
		q := cq.MustParse("Q(y) :- E(x,y), T(y)")
		stream := workload.RandomStream(rng, q.Schema(), 12, 300, 0.4)
		plain, plainH := solo(t, q, Options{Force: st})
		conc, concH := soloWorkers(t, 4, q, Options{Force: st})
		if _, err := plain.ApplyBatched(stream, 25); err != nil {
			t.Fatal(err)
		}
		if _, err := conc.ApplyBatched(stream, 25); err != nil {
			t.Fatal(err)
		}
		if plainH.Count() != concH.Count() {
			t.Fatalf("[%v] counts diverge: %d vs %d", st, plainH.Count(), concH.Count())
		}
		if !sameTuples(plainH.Tuples(), concH.Tuples()) {
			t.Fatalf("[%v] tuple sets diverge", st)
		}
	}
}

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
		n, err := oracle.ApplyBatch(stream[from:to])
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			wantAt = append(wantAt, state{oracleH.Count(), oracle.Cardinality()})
		}
	}

	cs, h := soloWorkers(t, 4, q, Options{})
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
		if _, err := cs.ApplyBatch(ch); err != nil {
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

// TestConcurrentShardedWriters: multiple writer goroutines apply
// disjoint shard partitions of one net batch (dyndb.Partition keeps all
// commands on a tuple in one shard, so the partitions commute) while
// readers continuously check internal consistency; the final state must
// match the static oracle. Run with -race.
func TestConcurrentShardedWriters(t *testing.T) {
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	rng := rand.New(rand.NewSource(61))
	init := workload.RandomDatabase(rng, q.Schema(), 40, 150)
	// A net batch: coalesce a random stream so the partitions commute.
	net := Coalesce(workload.RandomStream(rng, q.Schema(), 40, 2000, 0.3))
	const writers = 4

	cs, h := soloWorkers(t, writers, q, Options{})
	if err := cs.Load(init); err != nil {
		t.Fatal(err)
	}
	parts := dyndb.Partition(net, writers)
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
			if _, err := cs.ApplyBatched(part, 100); err != nil {
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
