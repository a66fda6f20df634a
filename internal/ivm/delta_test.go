package ivm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/workload"
)

// setDiff returns a \ b in lexicographic order.
func setDiff(a, b [][]Value) [][]Value {
	in := make(map[string]bool, len(b))
	for _, t := range b {
		in[fmt.Sprint(t)] = true
	}
	var out [][]Value
	for _, t := range a {
		if !in[fmt.Sprint(t)] {
			out = append(out, t)
		}
	}
	sortTuples(out)
	return out
}

func sameTuples(a, b [][]Value) bool {
	return slices.EqualFunc(a, b, func(x, y []Value) bool { return slices.Equal(x, y) })
}

// commitChecked applies the batch and checks the emitted delta against
// the set difference of the materialised result before and after.
func commitChecked(t *testing.T, h *harness, batch []dyndb.Update, where string) {
	t.Helper()
	before := h.Tuples()
	h.added, h.removed = nil, nil
	if _, err := h.ApplyBatch(batch); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	after := h.Tuples()
	if want := setDiff(after, before); !sameTuples(h.added, want) {
		t.Fatalf("%s: added %v, set difference %v", where, h.added, want)
	}
	if want := setDiff(before, after); !sameTuples(h.removed, want) {
		t.Fatalf("%s: removed %v, set difference %v", where, h.removed, want)
	}
}

// TestEmittedDeltaZeroTransit: under a self-join the inclusion–exclusion
// terms take a surviving tuple's multiplicity through zero inside one
// batch, so the delta must come from first-touch presence against the
// final state, not from zero crossings along the way. With
// Q(x) :- E(x,y), E(x,z) the multiplicity of x is deg(x)²: deleting k of
// its d edges applies −kd, −kd, +k², and d = 2k stands at exactly zero
// after the second term while x stays in the result.
func TestEmittedDeltaZeroTransit(t *testing.T) {
	q := cq.MustParse("Q(x) :- E(x,y), E(x,z)")
	filler := []dyndb.Update{ // keeps the crossover on the delta-join side
		dyndb.Insert("E", 5, 5), dyndb.Insert("E", 6, 6), dyndb.Insert("E", 7, 7),
		dyndb.Insert("E", 8, 8), dyndb.Insert("E", 9, 9),
	}
	for _, k := range []int{1, 2} { // 1: a restriction set of one tuple; 2: of two
		h, err := newHarness(q)
		if err != nil {
			t.Fatal(err)
		}
		h.emit = true
		load := slices.Clone(filler)
		for y := 1; y <= 2*k; y++ {
			load = append(load, dyndb.Insert("E", 1, Value(y)))
		}
		commitChecked(t, h, load, "load")
		var dels []dyndb.Update
		for y := k + 1; y <= 2*k; y++ {
			dels = append(dels, dyndb.Delete("E", 1, Value(y)))
		}
		if !h.BeginBatch(len(dels), false) {
			t.Fatalf("k=%d: the batch takes the rebuild crossover, the test needs the delta joins", k)
		}
		commitChecked(t, h, dels, fmt.Sprintf("k=%d transit", k))
		if len(h.added)+len(h.removed) != 0 {
			t.Fatalf("k=%d: x=1 stayed in the result, yet the batch emitted +%v -%v", k, h.added, h.removed)
		}
		if got := h.Multiplicity([]Value{1}); got != int64(k*k) {
			t.Fatalf("k=%d: multiplicity of x=1 is %d, want %d", k, got, k*k)
		}
		// Deleting the rest does remove it.
		dels = dels[:0]
		for y := 1; y <= k; y++ {
			dels = append(dels, dyndb.Delete("E", 1, Value(y)))
		}
		commitChecked(t, h, dels, fmt.Sprintf("k=%d drain", k))
		if !sameTuples(h.removed, [][]Value{{1}}) {
			t.Fatalf("k=%d: draining x=1 emitted -%v", k, h.removed)
		}
	}
}

// TestEmittedDeltaZeroTransitInsideTerm: the delta joins add each
// valuation to the multiplicities as they find it, so under a triple
// self-join a multiplicity passes through zero in the middle of one
// inclusion–exclusion term, not only between terms. With
// Q(x) :- E(x,y), E(x,z), E(x,w) the multiplicity of x is deg(x)³.
// Deleting k = 2 of x = 1's d = 3 edges applies −kd², −kd², +k²d, −kd²,
// +k²d, +k²d, −k³: the second term walks it from 9 down through 0 to −9,
// and x stays in the result at (d−k)³ = 1. Inserting two edges of an
// absent x = 2 applies +8, +8, −8, +8, −8, −8, +8: it is dropped at zero
// after the sixth term and back after the seventh. Each commit's delta
// must equal the before/after set difference and each multiplicity the
// oracle's.
func TestEmittedDeltaZeroTransitInsideTerm(t *testing.T) {
	q := cq.MustParse("Q(x) :- E(x,y), E(x,z), E(x,w)")
	h, err := newHarness(q)
	if err != nil {
		t.Fatal(err)
	}
	h.emit = true
	commitChecked(t, h, []dyndb.Update{ // the loops keep the crossover on the delta-join side
		dyndb.Insert("E", 5, 5), dyndb.Insert("E", 6, 6), dyndb.Insert("E", 7, 7),
		dyndb.Insert("E", 8, 8), dyndb.Insert("E", 9, 9),
		dyndb.Insert("E", 1, 1), dyndb.Insert("E", 1, 2), dyndb.Insert("E", 1, 3),
	}, "load")
	for _, step := range []struct {
		name           string
		batch          []dyndb.Update
		added, removed [][]Value
		x              Value
		mult           int64
	}{
		{"transit inside a term", []dyndb.Update{dyndb.Delete("E", 1, 2), dyndb.Delete("E", 1, 3)}, nil, nil, 1, 1},
		{"absent through zero", []dyndb.Update{dyndb.Insert("E", 2, 1), dyndb.Insert("E", 2, 2)}, [][]Value{{2}}, nil, 2, 8},
		{"drain", []dyndb.Update{dyndb.Delete("E", 1, 1)}, nil, [][]Value{{1}}, 1, 0},
	} {
		if !h.BeginBatch(len(step.batch), false) {
			t.Fatalf("%s: the batch takes the rebuild crossover, the test needs the delta joins", step.name)
		}
		commitChecked(t, h, step.batch, step.name)
		if !sameTuples(h.added, step.added) || !sameTuples(h.removed, step.removed) {
			t.Fatalf("%s: emitted +%v -%v, want +%v -%v", step.name, h.added, h.removed, step.added, step.removed)
		}
		if got := h.Multiplicity([]Value{step.x}); got != step.mult {
			t.Fatalf("%s: multiplicity of x=%d is %d, want %d", step.name, step.x, got, step.mult)
		}
		checkAgainstOracle(t, h, q, h.db, step.name)
	}
}

// TestEmittedDeltaMatchesSetDifference: on seeded streams over the hard
// queries, at batch sizes of one tuple, of several and past the rebuild
// crossover, every commit's emitted delta equals the
// before/after set difference.
func TestEmittedDeltaMatchesSetDifference(t *testing.T) {
	for _, qs := range []string{
		"Q(x,y) :- S(x), E(x,y), T(y)",
		"Q(x) :- E(x,y), T(y)",
		"Q(x,z) :- E(x,y), E(y,z)",
		"Q(x,y) :- E(x,y), E(y,x), E(x,x)",
	} {
		q := cq.MustParse(qs)
		for _, size := range []int{1, 3, 17, 1000} {
			rng := rand.New(rand.NewSource(int64(77 + size)))
			h, err := newHarness(q)
			if err != nil {
				t.Fatal(err)
			}
			h.emit = true
			stream := workload.RandomStream(rng, q.Schema(), 5, 200, 0.4)
			for from := 0; from < len(stream); from += size {
				to := min(from+size, len(stream))
				commitChecked(t, h, stream[from:to], fmt.Sprintf("%s size %d batch at %d", qs, size, from))
			}
		}
	}
}
