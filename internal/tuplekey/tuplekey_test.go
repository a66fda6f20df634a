package tuplekey

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b []int64
		want bool
	}{
		{nil, nil, true},
		{nil, []int64{}, true},
		{[]int64{1}, []int64{1}, true},
		{[]int64{1}, []int64{2}, false},
		{[]int64{1, 2}, []int64{1}, false},
		{[]int64{1, 2}, []int64{1, 2}, true},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestHashRespectsLength(t *testing.T) {
	// Tuples that are prefixes of each other must (very likely) differ.
	if Hash([]int64{1}) == Hash([]int64{1, 0}) {
		t.Error("Hash([1]) == Hash([1,0])")
	}
	if Hash(nil) == Hash([]int64{0}) {
		t.Error("Hash(nil) == Hash([0])")
	}
}

func TestTableBasic(t *testing.T) {
	m := NewTable[int](2)
	if _, ok := m.Get([]int64{1, 2}); ok {
		t.Error("Get on empty table reported ok")
	}
	m.Put([]int64{1, 2}, 12)
	m.Put([]int64{1, 3}, 13)
	m.Put([]int64{2, 1}, 21)
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if v, ok := m.Get([]int64{1, 2}); !ok || v != 12 {
		t.Errorf("Get([1 2]) = %d,%v", v, ok)
	}
	m.Put([]int64{1, 2}, 99) // overwrite
	if v, _ := m.Get([]int64{1, 2}); v != 99 {
		t.Errorf("after overwrite Get = %d", v)
	}
	if m.Len() != 3 {
		t.Errorf("Len after overwrite = %d, want 3", m.Len())
	}
	if p, existed := m.Ref([]int64{1, 3}); !existed || *p != 13 {
		t.Errorf("Ref of a present key = %d,%v", *p, existed)
	}
	if p, existed := m.Ref([]int64{5, 5}); existed || *p != 0 {
		t.Errorf("Ref of an absent key = %d,%v, want the zero value inserted", *p, existed)
	} else if *p = 55; !m.Has([]int64{5, 5}) {
		t.Error("Ref did not insert the absent key")
	}
	if v, _ := m.Get([]int64{5, 5}); v != 55 {
		t.Errorf("write through Ref's pointer lost: Get = %d", v)
	}
	if !m.Delete([]int64{1, 2}) {
		t.Error("Delete existing returned false")
	}
	if m.Delete([]int64{1, 2}) {
		t.Error("Delete absent returned true")
	}
	if m.Has([]int64{1, 2}) {
		t.Error("Has after Delete reported true")
	}
	if m.Len() != 3 {
		t.Errorf("Len after delete = %d, want 3", m.Len())
	}
}

// A key of the wrong length is in no fixed-arity table: lookups miss,
// writes are a programming error.
func TestTableWrongLength(t *testing.T) {
	m := NewTable[int](2)
	m.Put([]int64{1, 2}, 1)
	for _, k := range [][]int64{nil, {1}, {1, 2, 3}} {
		if _, ok := m.Get(k); ok || m.Has(k) || m.Delete(k) {
			t.Errorf("key %v of the wrong length was found", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Put of a key of the wrong length did not panic")
		}
	}()
	m.Put([]int64{1}, 1)
}

// A Boolean head is the empty tuple: stride 0 holds at most that one key.
func TestTableArityZero(t *testing.T) {
	m := NewTable[int](0)
	if m.Has(nil) {
		t.Error("empty arity-0 table has the empty tuple")
	}
	m.Put([]int64{}, 5)
	if v, ok := m.Get(nil); !ok || v != 5 {
		t.Errorf("Get(nil) after Put([]) = %d,%v", v, ok)
	}
	*must(m.Ref(nil)) += 2
	seen := 0
	m.Range(func(k []int64, v int) bool {
		seen++
		if len(k) != 0 || v != 7 {
			t.Errorf("Range yielded %v → %d", k, v)
		}
		return true
	})
	if seen != 1 || m.Len() != 1 {
		t.Errorf("Range visited %d entries, Len %d, want 1", seen, m.Len())
	}
	if !m.Delete(nil) || m.Len() != 0 || m.Has(nil) {
		t.Error("Delete of the empty tuple failed")
	}
}

func must[V any](p *V, existed bool) *V {
	if !existed {
		panic("key absent")
	}
	return p
}

// Put copies: the caller's slice stays the caller's.
func TestPutCopiesKey(t *testing.T) {
	m := NewTable[int](3)
	k := []int64{1, 2, 3}
	m.Put(k, 1)
	p, _ := m.Ref([]int64{4, 5, 6})
	*p = 2
	k[0], k[1], k[2] = 7, 8, 9
	if v, ok := m.Get([]int64{1, 2, 3}); !ok || v != 1 {
		t.Errorf("mutating the caller's slice after Put changed the stored key: Get = %d,%v", v, ok)
	}
	if m.Has(k) {
		t.Error("the mutated slice is found: the table kept a reference")
	}
	// The reverse direction: Range's slices alias the table and are capped,
	// so an append by the callee cannot run into the next slot.
	m.Range(func(key []int64, _ int) bool {
		if cap(key) != 3 {
			t.Errorf("Range key has cap %d, want 3", cap(key))
		}
		return true
	})
}

func TestTableReset(t *testing.T) {
	m := NewTable[int](1)
	for round, n := range []int{5000, 10, 10, 3000} {
		for i := 0; i < n; i++ {
			if p, existed := m.Ref([]int64{int64(i)}); existed || *p != 0 {
				t.Fatalf("round %d: key %d survived Reset (value %d)", round, i, *p)
			} else {
				*p = i + 1
			}
		}
		if m.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, m.Len(), n)
		}
		m.Reset()
		if m.Len() != 0 || m.Has([]int64{1}) {
			t.Fatalf("round %d: table not empty after Reset", round)
		}
	}
	// A table reused at a steady small size keeps its arrays.
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 10; i++ {
			m.Put([]int64{int64(i)}, i)
		}
		m.Reset()
	}); allocs != 0 {
		t.Errorf("steady-state fill+Reset allocates %v times, want 0", allocs)
	}
}

func TestTableRange(t *testing.T) {
	m := NewTable[int](2)
	want := map[string]int{}
	for i := 0; i < 100; i++ {
		k := []int64{int64(i % 10), int64(i)}
		m.Put(k, i)
		want[fmt.Sprint(k)] = i
	}
	got := map[string]int{}
	m.Range(func(k []int64, v int) bool {
		got[fmt.Sprint(k)] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Range mismatch for %s: got %d want %d", k, got[k], v)
		}
	}
	// Early stop.
	count := 0
	m.Range(func([]int64, int) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("early-stop Range visited %d, want 5", count)
	}
}

// runProgram drives a Table and a Go map through the operation sequence
// encoded in prog (three bytes per operation: kind, then a 16-bit key seed)
// and fails on the first disagreement, re-checking the whole content after
// every rehash. It returns how many rehashes of either kind the table went
// through.
func runProgram(t testing.TB, arity int, prog []byte) (grown, sameSize int) {
	tb := NewTable[int](arity)
	model := map[string]int{}
	key := make([]int64, arity)
	check := func(step int) {
		if tb.Len() != len(model) {
			t.Fatalf("arity %d step %d: Len = %d, model %d", arity, step, tb.Len(), len(model))
		}
		seen := 0
		tb.Range(func(k []int64, v int) bool {
			seen++
			if mv, ok := model[fmt.Sprint(k)]; !ok || mv != v {
				t.Fatalf("arity %d step %d: Range yields %v → %d, model %d,%v", arity, step, k, v, mv, ok)
			}
			return true
		})
		if seen != len(model) {
			t.Fatalf("arity %d step %d: Range visited %d entries, model has %d", arity, step, seen, len(model))
		}
	}
	for step := 0; step+2 < len(prog); step += 3 {
		seed := int64(prog[step+1])<<8 | int64(prog[step+2])
		for j := range key {
			key[j] = (seed >> (3 * j)) - int64(j) // overlapping bits: many keys share a prefix
		}
		if arity > 0 {
			key[arity-1] = seed
		}
		ks := fmt.Sprint(key)
		slots, tombs := len(tb.ctrl), tb.tombs
		switch prog[step] % 4 {
		case 0: // put
			tb.Put(key, step)
			model[ks] = step
		case 1: // get-or-insert
			p, existed := tb.Ref(key)
			mv, mok := model[ks]
			if existed != mok || *p != mv {
				t.Fatalf("arity %d step %d: Ref(%v) = %d,%v, model %d,%v", arity, step, key, *p, existed, mv, mok)
			}
			*p = step
			model[ks] = step
		case 2: // delete
			_, want := model[ks]
			if got := tb.Delete(key); got != want {
				t.Fatalf("arity %d step %d: Delete(%v) = %v, model %v", arity, step, key, got, want)
			}
			delete(model, ks)
		case 3: // get
			v, ok := tb.Get(key)
			if mv, mok := model[ks]; ok != mok || v != mv {
				t.Fatalf("arity %d step %d: Get(%v) = %d,%v, model %d,%v", arity, step, key, v, ok, mv, mok)
			}
		}
		switch {
		case len(tb.ctrl) > slots:
			grown++
			check(step)
		case tb.tombs < tombs-1: // one insert reuses at most one tombstone itself
			sameSize++
			check(step)
		}
	}
	check(len(prog))
	return grown, sameSize
}

// randomProgram alternates two phases. Random operations over a 512-key
// domain take the table through its doublings. A sliding window (insert a
// fresh key, delete the one inserted 100 operations earlier) keeps few
// keys live while every insert lands somewhere new, so tombstones pile up
// until a rehash at the same size clears them.
func randomProgram(rng *rand.Rand, ops int) []byte {
	prog := make([]byte, 0, 3*ops)
	op := func(kind byte, seed int) { prog = append(prog, kind, byte(seed>>8), byte(seed)) }
	fresh := 512
	for len(prog) < 3*ops {
		for i := 0; i < 2000; i++ {
			op(byte(rng.Intn(4)), rng.Intn(512))
		}
		for i := 0; i < 512; i++ { // empty the random phase's keys
			op(2, i)
		}
		for i := 0; i < 2000; i++ {
			op(byte(rng.Intn(2)), fresh)
			op(3, fresh-rng.Intn(200))
			op(2, fresh-100)
			fresh = 512 + (fresh-512+1)%60000
		}
	}
	return prog
}

// TestTableAgainstModel is the model-based test of the fixed-arity
// contract: arities 0–4 against a Go map, through several growth rehashes
// and at least one tombstone-clearing rehash at the same size.
func TestTableAgainstModel(t *testing.T) {
	for arity := 0; arity <= 4; arity++ {
		rng := rand.New(rand.NewSource(int64(42 + arity)))
		grown, sameSize := runProgram(t, arity, randomProgram(rng, 60000))
		if arity == 0 {
			continue // one possible key: the table never leaves its first 8 slots
		}
		if grown < 4 {
			t.Errorf("arity %d: only %d growth rehashes, want several", arity, grown)
		}
		if sameSize < 1 {
			t.Errorf("arity %d: no tombstone-clearing same-size rehash happened", arity)
		}
	}
}

// FuzzTable runs arbitrary programs against the model; the seeds are
// prefixes of the model test's own programs.
func FuzzTable(f *testing.F) {
	for arity := 0; arity <= 4; arity++ {
		rng := rand.New(rand.NewSource(int64(42 + arity)))
		f.Add(uint8(arity), randomProgram(rng, 3000))
	}
	f.Add(uint8(2), []byte{0, 0, 1, 0, 0, 2, 2, 0, 1, 1, 0, 1, 3, 0, 2})
	f.Fuzz(func(t *testing.T, arity uint8, prog []byte) {
		runProgram(t, int(arity%5), prog)
	})
}

func BenchmarkTablePut(b *testing.B) {
	keys := make([][]int64, 1<<14)
	rng := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = []int64{rng.Int63(), rng.Int63()}
	}
	b.ResetTimer()
	m := NewTable[int](2)
	for i := 0; i < b.N; i++ {
		m.Put(keys[i%len(keys)], i)
	}
}

func BenchmarkTableGetHit(b *testing.B) {
	m := NewTable[int](2)
	keys := make([][]int64, 1<<14)
	rng := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = []int64{rng.Int63(), rng.Int63()}
		m.Put(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(keys[i%len(keys)])
	}
}

func BenchmarkTableGetMiss(b *testing.B) {
	m := NewTable[int](2)
	keys := make([][]int64, 1<<14)
	rng := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = []int64{rng.Int63(), rng.Int63()}
		m.Put([]int64{rng.Int63(), rng.Int63()}, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(keys[i%len(keys)])
	}
}
