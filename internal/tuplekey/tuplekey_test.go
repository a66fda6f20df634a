package tuplekey

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dyncq/internal/allocs"
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

// TestHashValues pins Hash on a few tuples, so a change to its mixing (or
// to Extend, which it folds) shows up here and not as a silent change of
// every table's layout.
func TestHashValues(t *testing.T) {
	for _, c := range []struct {
		key  []int64
		want uint64
	}{
		{nil, 0x9e3779b97f4a7c15},
		{[]int64{0}, 0x341584995d05107e},
		{[]int64{1, 2, 3}, 0x12734cf5bc81c4a6},
		{[]int64{-1, 1 << 62, 7}, 0x6f7afdea1ed9660d},
	} {
		if got := Hash(c.key); got != c.want {
			t.Errorf("Hash(%v) = %#x, want %#x", c.key, got, c.want)
		}
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
}

// TestTableFillResetAllocationFree: a table reused at a steady small size
// keeps its arrays — 1,000 fills of 10 keys, each emptied by Reset,
// allocate nothing under Put and Reset (allocs.Count) — while the first
// fill of a fresh table, which grows them, is counted.
func TestTableFillResetAllocationFree(t *testing.T) {
	frames := []string{"dyncq/internal/tuplekey.(*Table[...]).Put", "dyncq/internal/tuplekey.(*Table[...]).Reset"}
	keys := make([][]int64, 10)
	for i := range keys {
		keys[i] = []int64{int64(i)}
	}
	var m *Table[int]
	fill := func() {
		for i, k := range keys {
			m.Put(k, i)
		}
		m.Reset()
	}
	m = NewTable[int](1)
	if n, _ := allocs.Count(fill, frames...); n == 0 {
		t.Fatal("a fresh table's first fill counted no allocation: the frames name nothing")
	}
	n, stacks := allocs.Count(func() {
		for range 1000 {
			fill()
		}
	}, frames...)
	if n != 0 {
		t.Fatalf("1,000 steady-state fills and Resets allocated %d times, want 0:\n%s", n, strings.Join(stacks, "\n"))
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
// followed by Delete at zero would — the same slots, entries, values and
// Len — where the freed slot's run shifts back past an entry that must
// stay (its home is the next slot) and where the freed slot ends its run,
// and a fresh key on a shortened run takes the empty slot that ends it.
func TestAddCountZeroCrossing(t *testing.T) {
	// In an 8-slot table: a and c share home slot h, b's home is h+1, so
	// inserted in that order they sit in slots h, h+1, h+2.
	home := Hash([]int64{0}) & 7
	keyAt := func(want uint64, skip int64) []int64 {
		for k := skip + 1; ; k++ {
			if Hash([]int64{k})&7 == want {
				return []int64{k}
			}
		}
	}
	ka := []int64{0}
	kb := keyAt((home+1)&7, 0)
	kc := keyAt(home, 0)
	kd := keyAt(home, kc[0])
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
		if a.Len() != b.Len() || fmt.Sprint(a.slots.Slots) != fmt.Sprint(b.slots.Slots) ||
			fmt.Sprint(a.keys) != fmt.Sprint(b.keys) || fmt.Sprint(a.vals) != fmt.Sprint(b.vals) {
			t.Fatalf("%s: AddCount table (len %d, slots %x, keys %v) differs from Ref+Delete (len %d, slots %x, keys %v)",
				what, a.Len(), a.slots.Slots, a.keys, b.Len(), b.slots.Slots, b.keys)
		}
		if err := checkDense(a); err != nil {
			t.Fatalf("%s: %v", what, err)
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
	// at checks the keys in slots h, h+1, … (nil: empty) and in the
	// entries, in order.
	at := func(what string, slots [][]int64, entries ...[]int64) {
		t.Helper()
		for j, k := range slots {
			i := int(home+uint64(j)) & 7
			w := a.slots.Slots[i]
			if k == nil && w != 0 || k != nil && (w == 0 || a.keys[uint32(w)-1] != k[0]) {
				t.Fatalf("%s: slot %d holds word %#x, want key %v", what, i, w, k)
			}
		}
		if fmt.Sprint(entries) != fmt.Sprint(chunk(a.keys, 1)) {
			t.Fatalf("%s: entries hold keys %v, want %v", what, a.keys, entries)
		}
	}
	for _, k := range [][]int64{ka, kb, kc} {
		step("insert", k, 1, false)
	}
	at("after inserts", [][]int64{ka, kb, kc, nil}, ka, kb, kc)
	step("count up", ka, 2, true)
	step("count down", ka, -1, true)
	// Freeing h: b's home is h+1, so it stays; c moves back into h. The
	// last entry, c, moves into a's entry.
	step("zero before a run", ka, -2, true)
	at("after the first zero", [][]int64{kc, kb, nil}, kc, kb)
	if a.Len() != 2 || a.Has(ka) {
		t.Fatalf("after the first zero: Len %d, Has %v, want 2, false", a.Len(), a.Has(ka))
	}
	// b's successor is empty: its slot just goes back to empty, and b is
	// the last entry, so no entry moves.
	step("zero at a run's end", kb, -1, true)
	at("after the second zero", [][]int64{kc, nil}, kc)
	// A fresh key of home h lands in the empty slot that ends its run.
	step("insert after the shift", kd, 5, false)
	at("reinsert", [][]int64{kc, kd, nil}, kc, kd)
	if a.Len() != 2 || a.vals[1] != 5 {
		t.Fatalf("reinsert: Len %d, value %d, want 2, 5", a.Len(), a.vals[1])
	}
	// An absent key at d = 0 is inserted and freed at once.
	step("absent at zero", []int64{-7}, 0, false)
	if a.Len() != 2 || a.Has([]int64{-7}) {
		t.Fatalf("absent at zero: Len %d, Has %v, want 2, false", a.Len(), a.Has([]int64{-7}))
	}
}

// chunk splits a flat key array into keys of arity n.
func chunk(keys []int64, n int) [][]int64 {
	var out [][]int64
	for i := 0; i+n <= len(keys); i += n {
		out = append(out, keys[i:i+n])
	}
	return out
}

// checkDense checks the dense layout: Len, the entries and the full
// slots agree in number, and exactly one slot names each entry — the slot
// holds the entry's hash bits, is the one a probe for its key finds, and
// has no empty slot between its home and itself.
func checkDense[V any](tb *Table[V]) error {
	n := tb.Len()
	if len(tb.vals) != n || len(tb.keys) != n*tb.arity || tb.slots.Len() != n {
		return fmt.Errorf("Len %d, %d values, %d key words at arity %d, %d slots counted",
			n, len(tb.vals), len(tb.keys), tb.arity, tb.slots.Len())
	}
	named := make([]bool, n)
	full := 0
	for i, w := range tb.slots.Slots {
		if w == 0 {
			continue
		}
		full++
		e := int(uint32(w)) - 1
		if e < 0 || e >= n || named[e] {
			return fmt.Errorf("slot %d names entry %d of %d, nil, past the end or named twice", i, e, n)
		}
		named[e] = true
		key := tb.keys[e*tb.arity : (e+1)*tb.arity]
		h := Hash(key)
		if uint32(w>>32) != uint32(h) {
			return fmt.Errorf("slot %d holds hash bits %#x, entry %d's key %v hashes to %#x", i, w>>32, e, key, uint32(h))
		}
		if slot, found := tb.find(key, h); found != e || slot != uint32(i) {
			return fmt.Errorf("a probe for %v finds entry %d in slot %d, not entry %d in slot %d", key, found, slot, e, i)
		}
		if gap := tb.slots.Gap(i); gap >= 0 {
			return fmt.Errorf("empty slot %d lies between slot %d and its key's home", gap, i)
		}
	}
	if full != n {
		return fmt.Errorf("%d full slots for %d entries", full, n)
	}
	return nil
}

// runProgram drives a Table and a Go map through the operation sequence
// encoded in prog (three bytes per operation: kind, then a 16-bit key seed)
// and fails on the first disagreement or broken dense layout (checkDense,
// after every operation), re-checking the whole content after every
// growth and every delete by position. The kind byte's low seven bits
// modulo 6 pick the operation. For AddCount, bit 7 set means "cancel the
// stored count" (a zero crossing on a present key) and bits 4–5 otherwise
// give d in −1..2. For a delete by position, bits 4–5 pick the first, a
// middle or the last entry. It returns how many times the slots grew, how
// many deletes moved the last entry into their hole, and how many deletes
// by position took the first, a middle and the last entry.
func runProgram(t testing.TB, arity int, prog []byte) (grown, moved int, byPos [3]int) {
	tb := NewTable[int64](arity)
	model := map[string]int64{}
	key := make([]int64, arity)
	check := func(step int) {
		if tb.Len() != len(model) {
			t.Fatalf("arity %d step %d: Len = %d, model %d", arity, step, tb.Len(), len(model))
		}
		seen := map[string]bool{}
		tb.Range(func(k []int64, v int64) bool {
			ks := fmt.Sprint(k)
			if mv, ok := model[ks]; !ok || mv != v || seen[ks] {
				t.Fatalf("arity %d step %d: Range yields %v → %d (seen before: %v), model %d,%v", arity, step, k, v, seen[ks], mv, ok)
			}
			seen[ks] = true
			return true
		})
		if len(seen) != len(model) {
			t.Fatalf("arity %d step %d: Range visited %d entries, model has %d", arity, step, len(seen), len(model))
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
		slots, n := len(tb.slots.Slots), tb.Len()
		kind, v := prog[step], int64(step)
		op := kind & 0x7f % 6
		if op == 5 { // delete by position
			if n == 0 {
				continue
			}
			pos := min(int(kind>>4&3), 2)
			e := [3]int{0, n / 2, n - 1}[pos]
			byPos[pos]++
			key = append(key[:0], tb.keys[e*arity:(e+1)*arity]...)
			op = 2
		}
		ks := fmt.Sprint(key)
		switch op {
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
			_, e := tb.lookup(key)
			if got := tb.Delete(key); got != want {
				t.Fatalf("arity %d step %d: Delete(%v) = %v, model %v", arity, step, key, got, want)
			}
			if want && e != n-1 {
				moved++
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
		if err := checkDense(tb); err != nil {
			t.Fatalf("arity %d step %d: %v", arity, step, err)
		}
		if len(tb.slots.Slots) > slots {
			grown++
			check(step)
		} else if kind&0x7f%6 == 5 {
			check(step)
		}
	}
	check(len(prog))
	return grown, moved, byPos
}

// randomProgram alternates two phases. Random operations over a 512-key
// domain, AddCount and deletes by position among them, take the table
// through its doublings. A sliding window (insert a fresh key, delete the
// one inserted 100 operations earlier) keeps few keys live while every
// insert lands somewhere new, so deletes keep shifting runs back, across
// the end of the slot array among them, and the table must not grow.
func randomProgram(rng *rand.Rand, ops int) []byte {
	prog := make([]byte, 0, 3*ops)
	op := func(kind byte, seed int) { prog = append(prog, kind, byte(seed>>8), byte(seed)) }
	fresh := 512
	for len(prog) < 3*ops {
		for i := 0; i < 2000; i++ {
			op(byte(rng.Intn(6)|rng.Intn(4)<<4|rng.Intn(2)<<7), rng.Intn(512))
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
// contract: arities 0–4 against a Go map, through several growths,
// deletes that moved the last entry into their hole, and deletes of the
// first, a middle and the last entry.
func TestTableAgainstModel(t *testing.T) {
	for arity := 0; arity <= 4; arity++ {
		rng := rand.New(rand.NewSource(int64(42 + arity)))
		grown, moved, byPos := runProgram(t, arity, randomProgram(rng, 60000))
		if arity == 0 {
			continue // one possible key: the table never leaves its first 8 slots
		}
		if grown < 4 || moved < 1 || byPos[0] < 1 || byPos[1] < 1 || byPos[2] < 1 {
			t.Errorf("arity %d: %d growths, %d deletes moved an entry, %v deletes of the first, a middle and the last entry; want several, one, one each",
				arity, grown, moved, byPos)
		}
		t.Logf("arity %d: %d growths, %d moving deletes, %v by position", arity, grown, moved, byPos)
	}
}

// FuzzTable runs arbitrary programs against the model; the seeds are
// prefixes of the model test's own programs and three short hand-written
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
	// Five inserts, then deletes of the first, a middle and the last entry.
	f.Add(uint8(3), []byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 5, 0, 0, 0x15, 0, 0, 0x25, 0, 0})
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
