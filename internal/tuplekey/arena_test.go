package tuplekey

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestArenaAgainstModel drives each word type's arena through allocs and
// frees against a map of what each live record holds: a freed ref is the
// next one handed out (the chain is a stack), a fresh record is all zero, records keep their
// words across chunk additions, a record slice taken before two chunk
// additions still aliases its record, and the free-chain audit passes
// throughout.
func TestArenaAgainstModel(t *testing.T) {
	t.Run("uint32", func(t *testing.T) { arenaModel[uint32](t) })
	t.Run("uint64", func(t *testing.T) { arenaModel[uint64](t) })
	t.Run("int64", func(t *testing.T) { arenaModel[int64](t) })
}

func arenaModel[W ~uint32 | ~uint64 | ~int64](t *testing.T) {
	const stride = 3
	a := NewArena[W](stride)
	model := map[uint32]W{} // live ref → the value all its words hold
	audit := func(step int) {
		t.Helper()
		live := make([]bool, a.N()+1)
		for r := range model {
			live[r] = true
		}
		if err := a.CheckFree(live, len(model)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	first := a.Alloc()
	early := a.Rec(first)
	model[first] = 0
	rng := rand.New(rand.NewSource(11))
	var refs []uint32  // live refs but first, which stays
	var chain []uint32 // the free chain, head last
	for step := 0; step < 8<<arenaShift; step++ {
		if rng.Intn(3) > 0 || len(refs) == 0 { // mostly allocs: the arena grows by chunks
			r := a.Alloc()
			if _, ok := model[r]; ok || r == 0 || r > a.N() {
				t.Fatalf("step %d: Alloc handed out ref %d, live or out of 1..%d", step, r, a.N())
			}
			rec := a.Rec(r)
			if k := len(chain) - 1; k >= 0 {
				if r != chain[k] {
					t.Fatalf("step %d: Alloc handed out ref %d, not the ref %d freed last", step, r, chain[k])
				}
				chain = chain[:k]
			} else {
				for i, w := range rec {
					if w != 0 || r != a.N() {
						t.Fatalf("step %d: fresh ref %d of %d holds %d in word %d", step, r, a.N(), w, i)
					}
				}
			}
			v := W(step + 1)
			for i := range rec {
				rec[i] = v
			}
			model[r] = v
			refs = append(refs, r)
		} else {
			i := rng.Intn(len(refs))
			r := refs[i]
			refs[i] = refs[len(refs)-1]
			refs = refs[:len(refs)-1]
			a.Free(r)
			delete(model, r)
			chain = append(chain, r)
		}
		if step%97 == 0 {
			audit(step)
		}
	}
	if a.Chunks() < 3 {
		t.Fatalf("%d chunks after %d records: the model never added two", a.Chunks(), a.N())
	}
	for r, v := range model {
		if rec := a.Rec(r); len(rec) != stride || cap(rec) != stride || rec[0] != v || rec[stride-1] != v {
			t.Fatalf("ref %d holds %v (cap %d), want %d in each of %d words", r, rec, cap(rec), v, stride)
		}
	}
	early[1] = 77
	if a.Rec(first)[1] != 77 {
		t.Fatal("a record slice taken before the chunks were added no longer aliases its record")
	}
	audit(-1)
}

// TestArenaCheckFreeSeesCorruption breaks the free chain one way at a time
// and expects the audit to name each.
func TestArenaCheckFreeSeesCorruption(t *testing.T) {
	build := func() (*Arena[uint64], []bool) {
		a := NewArena[uint64](2)
		for range 6 {
			a.Alloc()
		}
		a.Free(2)
		a.Free(5) // chain: 5 → 2
		return &a, []bool{false, true, false, true, true, false, true}
	}
	if a, live := build(); a.CheckFree(live, 4) != nil {
		t.Fatalf("healthy arena: %v", a.CheckFree(live, 4))
	}
	for name, c := range map[string]struct {
		corrupt func(a *Arena[uint64], live []bool) int
		want    string
	}{
		"cycle":          {func(a *Arena[uint64], live []bool) int { a.Rec(2)[0] = 5; return 4 }, "cycle"},
		"past N":         {func(a *Arena[uint64], live []bool) int { a.Rec(2)[0] = 9; return 4 }, "never handed out"},
		"stored on it":   {func(a *Arena[uint64], live []bool) int { a.Rec(2)[0] = 3; return 4 }, "ref 3 is stored"},
		"freed but live": {func(a *Arena[uint64], live []bool) int { a.Free(6); return 4 }, "ref 6 is stored"},
		"leaked record":  {func(a *Arena[uint64], live []bool) int { a.Alloc(); a.Alloc(); a.Alloc(); return 4 }, "4 stored + 0 free records of 7"},
	} {
		a, live := build()
		stored := c.corrupt(a, live)
		if live := append(live, make([]bool, int(a.N())+1-len(live))...); a.CheckFree(live, stored) == nil {
			t.Errorf("%s: not reported", name)
		} else if err := a.CheckFree(live, stored); !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: reported %q, want it to say %q", name, err, c.want)
		}
	}
}

// TestArenaRefExhaustion forges an arena that has handed out 2³²−2 refs
// and takes three more: the first is the last ref there is, the other two
// panic instead of wrapping onto ref 0 = nil. (The forged arena has no
// chunks behind its counter, so the refs have no records.)
func TestArenaRefExhaustion(t *testing.T) {
	a := NewArena[uint64](4)
	a.n = math.MaxUint32 - 1
	if r := a.Alloc(); r != math.MaxUint32 {
		t.Fatalf("Alloc = %d, want the last ref %d", r, uint32(math.MaxUint32))
	}
	for range 2 {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "2^32-1 records") {
					t.Errorf("Alloc on a full arena: recovered %q, want a panic naming the limit", msg)
				}
			}()
			t.Errorf("Alloc on a full arena returned ref %d", a.Alloc())
		}()
	}
	if a.N() != math.MaxUint32 {
		t.Errorf("N = %d after the refused allocations, want it unmoved", a.N())
	}
}
