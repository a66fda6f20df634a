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

// TestAddCountZeroCrossing: AddCount leaves the table exactly as Ref
// followed by Delete at zero would — the same slots, tombstones and Len —
// both where a freed slot must stay a tombstone (a later key's probe run
// passes it) and where it can go back to empty, and a freed tombstone is
// the slot the next insert on that probe path reuses.
func TestAddCountZeroCrossing(t *testing.T) {
	// Three keys with one home slot in an 8-slot table: they sit in
	// consecutive slots home, home+1, home+2.
	var ks [][]int64
	home := Hash([]int64{0}) & 7
	for k := int64(0); len(ks) < 3; k++ {
		if Hash([]int64{k})&7 == home {
			ks = append(ks, []int64{k})
		}
	}
	a, b := NewTable[int64](1), NewTable[int64](1) // a: AddCount, b: Ref+Delete
	refDelete := func(key []int64, d int64) bool {
		n, existed := b.Ref(key)
		if *n += d; *n == 0 {
			b.Delete(key)
		}
		return existed
	}
	same := func(what string) {
		t.Helper()
		if a.Len() != b.Len() || a.tombs != b.tombs || fmt.Sprint(a.ctrl) != fmt.Sprint(b.ctrl) ||
			fmt.Sprint(a.keys) != fmt.Sprint(b.keys) || fmt.Sprint(a.vals) != fmt.Sprint(b.vals) {
			t.Fatalf("%s: AddCount table (len %d, tombs %d, ctrl %v) differs from Ref+Delete (len %d, tombs %d, ctrl %v)",
				what, a.Len(), a.tombs, a.ctrl, b.Len(), b.tombs, b.ctrl)
		}
	}
	step := func(what string, key []int64, d int64, wantPresent bool) {
		t.Helper()
		if got := AddCount(a, key, d); got != wantPresent {
			t.Fatalf("%s: AddCount reported present = %v, want %v", what, got, wantPresent)
		}
		if got := refDelete(key, d); got != wantPresent {
			t.Fatalf("%s: Ref reported existed = %v, want %v", what, got, wantPresent)
		}
		same(what)
	}
	for _, k := range ks {
		step("insert", k, 1, false)
	}
	step("count up", ks[0], 2, true)
	step("count down", ks[0], -1, true)
	if a.Len() != 3 || a.tombs != 0 {
		t.Fatalf("after inserts: Len %d, tombs %d, want 3, 0", a.Len(), a.tombs)
	}
	// ks[0]'s successor holds ks[1]: its slot must become a tombstone.
	step("zero with a full successor", ks[0], -2, true)
	if a.Len() != 2 || a.tombs != 1 || a.ctrl[home] != slotTombstone || a.Has(ks[0]) {
		t.Fatalf("after the first zero: Len %d, tombs %d, ctrl[home] %d, want 2, 1, tombstone", a.Len(), a.tombs, a.ctrl[home])
	}
	// ks[2]'s successor is empty: its slot goes straight back to empty.
	last := (home + 2) & 7
	step("zero with an empty successor", ks[2], -1, true)
	if a.Len() != 1 || a.tombs != 1 || a.ctrl[last] != slotEmpty {
		t.Fatalf("after the second zero: Len %d, tombs %d, ctrl[last] %d, want 1, 1, empty", a.Len(), a.tombs, a.ctrl[last])
	}
	// A fresh key on the same probe path lands in the freed tombstone.
	step("insert over the tombstone", ks[2], 5, false)
	if a.Len() != 2 || a.tombs != 0 || a.keys[home] != ks[2][0] || a.vals[home] != 5 {
		t.Fatalf("reinsert: Len %d, tombs %d, slot %d holds %d → %d, want 2, 0, %v → 5",
			a.Len(), a.tombs, home, a.keys[home], a.vals[home], ks[2])
	}
	// An absent key at d = 0 is inserted and freed at once.
	step("absent at zero", []int64{-7}, 0, false)
	if a.Len() != 2 || a.Has([]int64{-7}) {
		t.Fatalf("absent at zero: Len %d, Has %v, want 2, false", a.Len(), a.Has([]int64{-7}))
	}
}

// runProgram drives a Table and a Go map through the operation sequence
// encoded in prog (three bytes per operation: kind, then a 16-bit key seed)
// and fails on the first disagreement, re-checking the whole content after
// every rehash. The kind byte's low seven bits modulo 5 pick the
// operation; for AddCount, bit 7 set means "cancel the stored count" (a
// zero crossing on a present key) and bits 4–5 otherwise give d in −1..2.
// It returns how many rehashes of either kind the table went through.
func runProgram(t testing.TB, arity int, prog []byte) (grown, sameSize int) {
	tb := NewTable[int64](arity)
	model := map[string]int64{}
	key := make([]int64, arity)
	check := func(step int) {
		if tb.Len() != len(model) {
			t.Fatalf("arity %d step %d: Len = %d, model %d", arity, step, tb.Len(), len(model))
		}
		seen := 0
		tb.Range(func(k []int64, v int64) bool {
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
		kind, v := prog[step], int64(step)
		switch kind & 0x7f % 5 {
		case 0: // put
			tb.Put(key, v)
			model[ks] = v
		case 1: // get-or-insert
			p, existed := tb.Ref(key)
			mv, mok := model[ks]
			if existed != mok || *p != mv {
				t.Fatalf("arity %d step %d: Ref(%v) = %d,%v, model %d,%v", arity, step, key, *p, existed, mv, mok)
			}
			*p = v
			model[ks] = v
		case 2: // delete
			_, want := model[ks]
			if got := tb.Delete(key); got != want {
				t.Fatalf("arity %d step %d: Delete(%v) = %v, model %v", arity, step, key, got, want)
			}
			delete(model, ks)
		case 3: // get
			got, ok := tb.Get(key)
			if mv, mok := model[ks]; ok != mok || got != mv {
				t.Fatalf("arity %d step %d: Get(%v) = %d,%v, model %d,%v", arity, step, key, got, ok, mv, mok)
			}
		case 4: // add to a count, dropping it at zero
			mv, mok := model[ks]
			d := int64(kind>>4&3) - 1
			if kind&0x80 != 0 {
				d = -mv
			}
			if got := AddCount(tb, key, d); got != mok {
				t.Fatalf("arity %d step %d: AddCount(%v, %d) = %v, model %v", arity, step, key, d, got, mok)
			}
			if mv += d; mv == 0 {
				delete(model, ks)
			} else {
				model[ks] = mv
			}
			if got, ok := tb.Get(key); ok != (mv != 0) || got != mv {
				t.Fatalf("arity %d step %d: after AddCount(%v, %d) Get = %d,%v, model %d", arity, step, key, d, got, ok, mv)
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
// domain, AddCount among them, take the table through its doublings. A sliding window (insert a
// fresh key, delete the one inserted 100 operations earlier) keeps few
// keys live while every insert lands somewhere new, so tombstones pile up
// until a rehash at the same size clears them.
func randomProgram(rng *rand.Rand, ops int) []byte {
	prog := make([]byte, 0, 3*ops)
	op := func(kind byte, seed int) { prog = append(prog, kind, byte(seed>>8), byte(seed)) }
	fresh := 512
	for len(prog) < 3*ops {
		for i := 0; i < 2000; i++ {
			op(byte(rng.Intn(5)|rng.Intn(4)<<4|rng.Intn(2)<<7), rng.Intn(512))
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
// prefixes of the model test's own programs and two short hand-written
// ones.
func FuzzTable(f *testing.F) {
	for arity := 0; arity <= 4; arity++ {
		rng := rand.New(rand.NewSource(int64(42 + arity)))
		f.Add(uint8(arity), randomProgram(rng, 3000))
	}
	f.Add(uint8(2), []byte{0, 0, 1, 0, 0, 2, 2, 0, 1, 1, 0, 1, 3, 0, 2})
	// AddCount: insert at 2, cancel to zero, insert at 0 (freed at once),
	// insert at 1 and count down to zero.
	f.Add(uint8(1), []byte{0x34, 0, 1, 0x34, 0, 2, 0x84, 0, 1, 0x14, 0, 3, 0x24, 0, 1, 0x04, 0, 1})
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
