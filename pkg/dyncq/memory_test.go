package dyncq

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"

	"dyncq/internal/dyndb"
	"dyncq/internal/workload"
)

// memoryShape is one of the benchmark's two ingest query sets with a
// generator for a store of about n tuples in that workload's proportions
// and the most bytes a loaded workspace may hold per stored tuple.
type memoryShape struct {
	name    string
	queries map[string]string
	ceiling float64
	fill    func(db *dyndb.Database, n int)
}

var memoryShapes = []memoryShape{
	{
		// ingest-core: E 43 %, R 33 %, S 15 %, T 8 % of the store.
		name:    "ingest-core",
		queries: map[string]string{"star": "Q(y) :- E(x,y), T(y)", "deep": "Q(x,y,z) :- R(x,y,z), E(x,y), S(x)"},
		ceiling: 225, // ≈ 205 at 64k tuples, plus 10 %
		fill:    workload.FillIngestCore,
	},
	{
		// ingest-ivm: n/51 keys of degree 50 in E; S and T hold half the
		// keys each.
		name:    "ingest-ivm",
		queries: map[string]string{"hard": "Q(x,y) :- S(x), E(x,y), T(y)"},
		ceiling: 72, // ≈ 66 at 64k tuples, plus 10 %
		fill: func(db *dyndb.Database, n int) {
			keys := Value(n / 51)
			for x := Value(0); x < keys; x++ {
				for j := Value(0); j < 50; j++ {
					db.Insert("E", x, (x*31+j*977)%keys)
				}
				if x%2 == 0 {
					db.Insert("S", x)
				} else {
					db.Insert("T", x)
				}
			}
		},
	},
}

// TestBytesPerTuple measures what a loaded workspace holds per stored
// tuple — the shared store, the queries' maintenance structures and, for
// ivm, the eval indexes its first delta joins build — at store sizes a
// factor of eight apart, and fails when the figure drifts by more than
// 10 % across them or exceeds the shape's ceiling: memory is linear in |D|
// with a constant that neither creeps nor grows back. The sizes are powers of two (16k, 128k, and 1M unless -short)
// rather than the round 10k/100k/1M because every table doubles at a load
// of 3/4: bytes per tuple is a sawtooth in n with a 2× swing, and only
// sizes a power of two apart sit at the same tooth.
func TestBytesPerTuple(t *testing.T) {
	sizes := []int{1 << 16, 1 << 18, 1 << 20}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, shape := range memoryShapes {
		t.Run(shape.name, func(t *testing.T) {
			var first float64
			for _, n := range sizes {
				per := bytesPerTuple(t, shape, n)
				t.Logf("n=%d: %.0f bytes/tuple", n, per)
				if per > shape.ceiling {
					t.Errorf("n=%d holds %.0f bytes/tuple, ceiling %.0f", n, per, shape.ceiling)
				}
				if first == 0 {
					first = per
				} else if per < 0.9*first || per > 1.1*first {
					t.Errorf("n=%d holds %.0f bytes/tuple, %.0f at n=%d: more than 10%% apart", n, per, first, sizes[0])
				}
			}
		})
	}
}

// TestGCScanIndependentOfStoreSize checks that what the garbage collector
// has to scan for a loaded core-routed workspace does not grow with the
// store: items are pointer-free records and the store tables and A_v
// indexes hold no pointers, so only chunk directories and slot-array headers are
// scannable — under 1 MB at 64k tuples and at 1M (256k with -short), where
// one Go pointer per item would be 8 MB.
func TestGCScanIndependentOfStoreSize(t *testing.T) {
	large := 1 << 20
	if testing.Short() {
		large = 1 << 18
	}
	for _, n := range []int{1 << 16, large} {
		db := dyndb.New()
		memoryShapes[0].fill(db, n)
		before := heapScannable()
		ws := loadShape(t, memoryShapes[0], db)
		scan := heapScannable() - before
		runtime.KeepAlive(ws)
		runtime.KeepAlive(db)
		t.Logf("n=%d: %d KB scannable", n, scan>>10)
		if scan > 1<<20 {
			t.Errorf("n=%d: the workspace adds %d KB of scannable heap, want under 1 MB", n, scan>>10)
		}
	}
}

// heapScannable returns the bytes of live heap the collector scans for
// pointers, after a full collection.
func heapScannable() int64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(sample)
	return int64(sample[0].Value.Uint64())
}

func bytesPerTuple(t *testing.T, shape memoryShape, n int) float64 {
	db := dyndb.New()
	shape.fill(db, n)
	before := heapInUse()
	ws := loadShape(t, shape, db)
	held := heapInUse() - before
	runtime.KeepAlive(ws)
	runtime.KeepAlive(db)
	return float64(held) / float64(db.Cardinality())
}

// loadShape registers the shape's queries on a new workspace, loads db and
// warms every lazily built structure.
func loadShape(t testing.TB, shape memoryShape, db *dyndb.Database) *Workspace {
	return loadQueries(t, shape.queries, db)
}

// loadQueries registers the queries on a new workspace, loads db and
// warms every lazily built structure.
func loadQueries(t testing.TB, queries map[string]string, db *dyndb.Database) *Workspace {
	ws := NewWorkspace(WorkspaceOptions{})
	for name, text := range queries {
		if _, err := ws.Register(name, text); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Load(db); err != nil {
		t.Fatal(err)
	}
	// One single-tuple update per relation and back: an ivm query builds
	// its eval indexes on the first delta join that needs them.
	for _, rel := range db.Relations() {
		tup := make([]Value, db.Relation(rel).Arity())
		for i := range tup {
			tup[i] = -1 // in no generated tuple
		}
		for _, u := range []Update{dyndb.Insert(rel, tup...), dyndb.Delete(rel, tup...)} {
			if _, _, err := ws.Commit([]Update{u}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ws
}

// heapInUse returns the bytes of live heap objects after a full collection.
func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// BenchmarkCoreUpdate commits 64-update batches on the ingest-core query
// set (star + deep, both core-routed) at store sizes a factor of eight
// apart. Theorem 3.2's update bound does not mention |D|, so ns/update
// should read alike at every size — what is left is the cache: the
// batches draw their tuples from the whole store, so at 1M tuples nearly
// every touched record is a miss. The batches are a cycle (128 forward,
// each toggling 64 distinct tuples drawn from the store's own
// distribution, then their inverses backwards), so the store stays at its
// loaded size.
func BenchmarkCoreUpdate(b *testing.B) {
	const batch, forward = 64, 128
	for _, n := range []int{1 << 14, 1 << 17, 1 << 20} {
		b.Run(fmt.Sprintf("store=%d", n), func(b *testing.B) {
			shape := memoryShapes[0]
			db := dyndb.New()
			shape.fill(db, n)
			ws := loadShape(b, shape, db)
			cycle := toggleCycle(b, db, batch, forward, coreDraw(n))
			b.ReportAllocs()
			benchCommits(b, ws, cycle, batch)
		})
	}
}

// coreDraw draws an insert from the ingest-core shape's distribution at
// a store of about n tuples: E 40 %, R 30 %, T 15 %, S 15 %.
func coreDraw(n int) func(rng *rand.Rand) Update {
	xs, ys := int64(n/3), int64(n/6)
	return func(rng *rand.Rand) Update {
		switch p := rng.Intn(100); {
		case p < 40:
			return dyndb.Insert("E", rng.Int63n(xs), rng.Int63n(ys))
		case p < 70:
			return dyndb.Insert("R", rng.Int63n(xs), rng.Int63n(ys), rng.Int63n(1000))
		case p < 85:
			return dyndb.Insert("T", rng.Int63n(ys))
		default:
			return dyndb.Insert("S", rng.Int63n(xs))
		}
	}
}

// toggleCycle builds a cycle of 2·forward batches of batch distinct
// commands: forward batches toggling tuples drawn by draw, then their
// inverses backwards, so replaying the cycle returns the store to its
// loaded size. mirror tracks the workspace's store (it ends the cycle's
// forward half ahead of it); a tuple drawn twice in one batch would net
// out, so it is skipped.
func toggleCycle(b *testing.B, mirror *dyndb.Database, batch, forward int, draw func(rng *rand.Rand) Update) [][]Update {
	rng := rand.New(rand.NewSource(2))
	cycle := make([][]Update, 2*forward)
	for i := 0; i < forward; i++ {
		fwd, inv := make([]Update, 0, batch), make([]Update, batch)
		seen := dyndb.New()
		for len(fwd) < batch {
			u := draw(rng)
			if mirror.Has(u.Rel, u.Tuple...) {
				u.Op = dyndb.OpDelete
			}
			if fresh, _ := seen.Insert(u.Rel, u.Tuple...); !fresh {
				continue
			}
			fwd = append(fwd, u)
		}
		for j, u := range fwd {
			if _, err := mirror.Apply(u); err != nil {
				b.Fatal(err)
			}
			inv[batch-1-j] = Update{Op: dyndb.OpInsert + dyndb.OpDelete - u.Op, Rel: u.Rel, Tuple: u.Tuple}
		}
		cycle[i], cycle[2*forward-1-i] = fwd, inv
	}
	return cycle
}

// benchCommits replays the cycle on ws for b.N commits, failing when a
// commit nets fewer updates than its batch, and reports ns/update.
func benchCommits(b *testing.B, ws *Workspace, cycle [][]Update, batch int) {
	for i := 0; b.Loop(); i++ {
		if got, _, err := ws.Commit(cycle[i%len(cycle)]); err != nil || got != batch {
			b.Fatalf("batch netted %d of %d (err %v)", got, batch, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/update")
}
