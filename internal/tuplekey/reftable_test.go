package tuplekey

import (
	"math/rand"
	"testing"
)

// refRig keys a RefTable by records of one int64 each, as its callers key
// it by theirs, with a hash the test chooses so that keys collide, share
// homes and wrap around the end of the slots.
type refRig struct {
	t    *RefTable
	recs []int64 // by ref; recs[0] is nil's
	hash func(k int64) uint64
}

// find is the caller-side probe: the slot holding k and its ref, or ref 0
// and the slot an insert claims.
func (g *refRig) find(k int64) (slot, ref uint32) {
	s := g.t.Slots
	if len(s) == 0 {
		return 0, 0
	}
	h, mask := g.hash(k), uint32(len(s)-1)
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		w := s[i]
		if w == 0 {
			return i, 0
		}
		if uint32(w>>32) == uint32(h) && g.recs[uint32(w)] == k {
			return i, uint32(w)
		}
	}
}

// TestRefTableAgainstModel drives inserts and deletes over a small key
// space against a map, under a hash that puts every key in one of four
// homes (long runs, wrap-around) and keeps few distinct hash bits (bit
// matches the record then rejects). After every step each model key is
// found at its ref, no other is, the count agrees, and no full slot has an
// empty slot between its home and itself.
func TestRefTableAgainstModel(t *testing.T) {
	for _, hash := range map[string]func(k int64) uint64{
		"four homes": func(k int64) uint64 { return uint64(k%4)<<60 | uint64(k%4)*7 },
		"spread":     func(k int64) uint64 { return Hash([]int64{k}) },
	} {
		g := &refRig{t: &RefTable{}, recs: []int64{0}, hash: hash}
		model := map[int64]uint32{}
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 4000; step++ {
			k := rng.Int63n(40)
			if ref, ok := model[k]; ok && rng.Intn(2) == 0 {
				slot, found := g.find(k)
				if found != ref {
					t.Fatalf("step %d: %d found as ref %d, want %d", step, k, found, ref)
				}
				g.t.Free(slot)
				delete(model, k)
			} else if !ok {
				g.t.Reserve()
				slot, found := g.find(k)
				if found != 0 {
					t.Fatalf("step %d: absent %d found as ref %d", step, k, found)
				}
				g.recs = append(g.recs, k)
				ref := uint32(len(g.recs) - 1)
				g.t.Put(slot, g.hash(k), ref)
				model[k] = ref
			}
			if g.t.Len() != len(model) {
				t.Fatalf("step %d: Len %d, model %d", step, g.t.Len(), len(model))
			}
			for k := int64(0); k < 40; k++ {
				if _, found := g.find(k); found != model[k] {
					t.Fatalf("step %d: %d found as ref %d, model %d", step, k, found, model[k])
				}
			}
			for i, w := range g.t.Slots {
				if w == 0 {
					continue
				}
				if gap := g.t.Gap(i); gap >= 0 {
					t.Fatalf("step %d: empty slot %d between the home of slot %d and it", step, gap, i)
				}
			}
		}
		if len(g.t.Slots) > 64 {
			t.Errorf("%d slots for at most 40 keys: deletes grew the table", len(g.t.Slots))
		}
	}
}
