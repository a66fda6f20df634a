package dyncq

import (
	"math/rand"
	"runtime"
	"testing"

	"dyncq/internal/dyndb"
)

// memoryShape is one of the benchmark's two ingest query sets with a
// generator for a store of about n tuples in that workload's proportions.
type memoryShape struct {
	name    string
	queries map[string]string
	fill    func(db *dyndb.Database, n int)
}

var memoryShapes = []memoryShape{
	{
		// ingest-core: E 43 %, R 33 %, S 15 %, T 8 % of the store, x drawn
		// from a third of n values, y from a sixth.
		name:    "ingest-core",
		queries: map[string]string{"star": "Q(y) :- E(x,y), T(y)", "deep": "Q(x,y,z) :- R(x,y,z), E(x,y), S(x)"},
		fill: func(db *dyndb.Database, n int) {
			rng := rand.New(rand.NewSource(1))
			xs, ys := int64(n/3), int64(n/6)
			fill := func(rel string, share int, draw func() []Value) {
				db.Insert(rel, draw()...)
				for r := db.Relation(rel); r.Len() < n*share/100; {
					db.Insert(rel, draw()...)
				}
			}
			fill("E", 43, func() []Value { return []Value{rng.Int63n(xs), rng.Int63n(ys)} })
			fill("R", 33, func() []Value { return []Value{rng.Int63n(xs), rng.Int63n(ys), rng.Int63n(1000)} })
			fill("S", 15, func() []Value { return []Value{rng.Int63n(xs)} })
			fill("T", 8, func() []Value { return []Value{rng.Int63n(ys)} })
		},
	},
	{
		// ingest-ivm: n/51 keys of degree 50 in E; S and T hold half the
		// keys each.
		name:    "ingest-ivm",
		queries: map[string]string{"hard": "Q(x,y) :- S(x), E(x,y), T(y)"},
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
// 10 % across them: memory is linear in |D| with a constant that does not
// creep. The sizes are powers of two (16k, 128k, and 1M unless -short)
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
				if first == 0 {
					first = per
				} else if per < 0.9*first || per > 1.1*first {
					t.Errorf("n=%d holds %.0f bytes/tuple, %.0f at n=%d: more than 10%% apart", n, per, first, sizes[0])
				}
			}
		})
	}
}

func bytesPerTuple(t *testing.T, shape memoryShape, n int) float64 {
	db := dyndb.New()
	shape.fill(db, n)
	before := heapInUse()
	ws := NewWorkspace(WorkspaceOptions{})
	for name, text := range shape.queries {
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
			if _, err := ws.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	held := heapInUse() - before
	runtime.KeepAlive(ws)
	runtime.KeepAlive(db)
	return float64(held) / float64(db.Cardinality())
}

// heapInUse returns the bytes of live heap objects after a full collection.
func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
