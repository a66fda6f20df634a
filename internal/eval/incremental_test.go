package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dyncq/internal/dyndb"
	"dyncq/internal/tuplekey"
)

// dumpIndex flattens an index into sorted (projKey, tupleKey) pairs for
// order-insensitive comparison.
func dumpIndex(ix *Index) []string {
	var out []string
	ix.buckets.Range(func(pk []int64, b *tuplekey.Table[struct{}]) bool {
		return b.Keys(func(t []int64) bool {
			out = append(out, fmt.Sprint(pk, t))
			return true
		})
	})
	sort.Strings(out)
	return out
}

// checkAgainstFresh compares every built index of s against a fresh
// build over the same database.
func checkAgainstFresh(t *testing.T, s *IndexSet, db *dyndb.Database) {
	t.Helper()
	if err := s.SanityCheck(); err != nil {
		t.Fatal(err)
	}
	fresh := NewIndexSet(db)
	for k, ix := range s.idx {
		want := fresh.Get(k.rel, k.mask)
		if !reflect.DeepEqual(dumpIndex(ix), dumpIndex(want)) {
			t.Fatalf("index (%s,%b) diverges from a fresh build", k.rel, k.mask)
		}
	}
}

// TestIndexSetIncrementalMatchesFresh is the property test of the
// incrementally maintained index set: a randomised stream of inserts,
// deletes, and Load-style wholesale replacements (Clear + CopyFrom +
// Reload with the diff), interleaved with index builds on random masks,
// leaves every index equal to a fresh NewIndexSet build over the same
// database.
func TestIndexSetIncrementalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		db := dyndb.New()
		s := NewIndexSet(db)
		randomUpdate := func() dyndb.Update {
			v1, v2 := int64(rng.Intn(12)), int64(rng.Intn(12))
			if rng.Intn(3) == 0 {
				if rng.Intn(2) == 0 {
					return dyndb.Insert("T", v1)
				}
				return dyndb.Delete("T", v1)
			}
			if rng.Intn(2) == 0 {
				return dyndb.Insert("E", v1, v2)
			}
			return dyndb.Delete("E", v1, v2)
		}
		masks := []struct {
			rel  string
			mask uint32
		}{{"E", 1}, {"E", 2}, {"E", 3}, {"T", 1}}
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				// Load-style replacement of the whole contents: build the
				// target database, diff, swap, reconcile.
				target := dyndb.New()
				for i := 0; i < rng.Intn(30); i++ {
					if u := randomUpdate(); u.Op == dyndb.OpInsert {
						if _, err := target.Apply(u); err != nil {
							t.Fatal(err)
						}
					}
				}
				var diff []dyndb.Update
				for _, rel := range db.Relations() {
					old := db.Relation(rel)
					cur := target.Relation(rel)
					old.Each(func(tu []int64) bool {
						if cur == nil || !cur.Has(tu) {
							diff = append(diff, dyndb.Delete(rel, append([]int64(nil), tu...)...))
						}
						return true
					})
				}
				for _, rel := range target.Relations() {
					old := db.Relation(rel)
					target.Relation(rel).Each(func(tu []int64) bool {
						if old == nil || !old.Has(tu) {
							diff = append(diff, dyndb.Insert(rel, append([]int64(nil), tu...)...))
						}
						return true
					})
				}
				db.Clear()
				if err := db.CopyFrom(target); err != nil {
					t.Fatal(err)
				}
				s.Reload(diff)
			case r < 4:
				// Build (or fetch) an index on a random mask.
				m := masks[rng.Intn(len(masks))]
				s.Get(m.rel, m.mask)
			default:
				u := randomUpdate()
				changed, err := db.Apply(u)
				if err != nil {
					t.Fatal(err)
				}
				if changed {
					s.ApplyUpdate(u)
				}
			}
			if !s.Synced() {
				t.Fatalf("trial %d step %d: index set lost sync (epoch %d, store %d)", trial, step, s.Epoch(), db.Epoch())
			}
		}
		checkAgainstFresh(t, s, db)
	}
}

// TestIndexSetEpochFallback: a store mutated behind the set's back is
// detected by the epoch check, and the next Get rebuilds from scratch
// instead of serving stale buckets.
func TestIndexSetEpochFallback(t *testing.T) {
	db := dyndb.New()
	for i := int64(0); i < 10; i++ {
		if _, err := db.Insert("E", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	s := NewIndexSet(db)
	ix := s.Get("E", 1)
	if got := ix.bucket([]int64{3}).Len(); got != 1 {
		t.Fatalf("bucket(3) has %d tuples, want 1", got)
	}
	// Mutate the store without telling the set: stale until the next Get.
	if _, err := db.Delete("E", 3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("E", 3, 9); err != nil {
		t.Fatal(err)
	}
	if s.Synced() {
		t.Fatal("set claims sync after unreported mutations")
	}
	ix = s.Get("E", 1)
	if !s.Synced() {
		t.Fatal("Get did not resynchronise")
	}
	got := ix.bucket([]int64{3})
	if got.Len() != 1 || !got.Has([]int64{3, 9}) {
		t.Fatalf("rebuilt bucket(3) has %d tuples, want exactly (3,9)", got.Len())
	}
	checkAgainstFresh(t, s, db)

	// A Clear nobody diffs takes the same fallback.
	db.Clear()
	if s.Get("E", 1) == nil || s.Get("E", 1).buckets.Len() != 0 {
		t.Fatal("index after unreported Clear not empty")
	}
	if !s.Synced() {
		t.Fatal("set out of sync after fallback")
	}
}

// TestIndexSetRebuildsCounter: the fallback is observable — steady-state
// maintenance leaves Rebuilds at zero, silent store movement with built
// indexes increments it, and an epoch mismatch with nothing built resyncs
// without counting (nothing was rebuilt).
func TestIndexSetRebuildsCounter(t *testing.T) {
	db := dyndb.New()
	for i := int64(0); i < 10; i++ {
		if _, err := db.Insert("E", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	s := NewIndexSet(db)
	s.Get("E", 1)
	u := dyndb.Insert("E", 100, 101)
	if _, err := db.Apply(u); err != nil {
		t.Fatal(err)
	}
	s.ApplyUpdate(u)
	if got := s.Rebuilds(); got != 0 {
		t.Fatalf("Rebuilds = %d after clean maintenance, want 0", got)
	}
	// Mutate behind the set's back: the next Get drops and counts.
	if _, err := db.Insert("E", 200, 201); err != nil {
		t.Fatal(err)
	}
	s.Get("E", 1)
	if got := s.Rebuilds(); got != 1 {
		t.Fatalf("Rebuilds = %d after silent mutation, want 1", got)
	}
	// With nothing built, an epoch mismatch resyncs without a rebuild.
	empty := NewIndexSet(db)
	if _, err := db.Insert("E", 300, 301); err != nil {
		t.Fatal(err)
	}
	empty.Get("E", 1)
	if got := empty.Rebuilds(); got != 0 {
		t.Fatalf("Rebuilds = %d with no indexes to drop, want 0", got)
	}
}

// TestIndexSetConcurrentGetMatchesFresh is the concurrent extension of
// TestIndexSetIncrementalMatchesFresh: after every maintenance step, a
// group of goroutines hammers Get on random masks concurrently (racing
// lazy builds and the epoch-sync fallback against each other), and the
// resulting indexes must equal a fresh NewIndexSet build. Run under
// -race this is the safety proof for sharing one IndexSet between the
// workspace's parallel IVM handles.
func TestIndexSetConcurrentGetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	masks := []struct {
		rel  string
		mask uint32
	}{{"E", 1}, {"E", 2}, {"E", 3}, {"T", 1}}
	const readers = 8
	for trial := 0; trial < 5; trial++ {
		db := dyndb.New()
		s := NewIndexSet(db)
		for step := 0; step < 60; step++ {
			// Mutate the store (exclusive phase): half the steps notify the
			// set, the other half leave it to the concurrent fallback.
			v1, v2 := int64(rng.Intn(10)), int64(rng.Intn(10))
			var u dyndb.Update
			if rng.Intn(4) == 0 {
				u = dyndb.Delete("E", v1, v2)
			} else if rng.Intn(5) == 0 {
				u = dyndb.Insert("T", v1)
			} else {
				u = dyndb.Insert("E", v1, v2)
			}
			changed, err := db.Apply(u)
			if err != nil {
				t.Fatal(err)
			}
			if changed && step%2 == 0 {
				s.ApplyUpdate(u)
			}
			// Quiescent store: concurrent readers race builds and syncs.
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				seed := int64(trial*1000 + step*10 + r)
				go func() {
					defer wg.Done()
					lrng := rand.New(rand.NewSource(seed))
					for i := 0; i < 4; i++ {
						m := masks[lrng.Intn(len(masks))]
						ix := s.Get(m.rel, m.mask)
						if ix == nil {
							panic("nil index from concurrent Get")
						}
						// Exercise the read path too.
						ix.bucket([]int64{int64(lrng.Intn(10))})
					}
				}()
			}
			wg.Wait()
			if !s.Synced() {
				t.Fatalf("trial %d step %d: set out of sync after concurrent Gets", trial, step)
			}
		}
		checkAgainstFresh(t, s, db)
	}
}

// TestIndexSetApplyDelta: the batch maintenance entry point keeps epoch
// lockstep with dyndb.ApplyNetDelta.
func TestIndexSetApplyDelta(t *testing.T) {
	db := dyndb.NewSharded(4)
	var initial []dyndb.Update
	for i := int64(0); i < 50; i++ {
		initial = append(initial, dyndb.Insert("E", i%10, i))
	}
	if err := db.ApplyAll(initial); err != nil {
		t.Fatal(err)
	}
	s := NewIndexSet(db)
	s.Get("E", 1)
	var batch []dyndb.Update
	for i := int64(0); i < 40; i++ {
		if i%2 == 0 {
			batch = append(batch, dyndb.Insert("E", i%10, 100+i))
		} else {
			batch = append(batch, dyndb.Delete("E", i%10, i))
		}
	}
	delta, err := db.NetDelta(batch)
	if err != nil {
		t.Fatal(err)
	}
	db.ApplyNetDelta(delta, 2)
	s.ApplyDelta(delta)
	if !s.Synced() {
		t.Fatalf("epoch %d after ApplyDelta, store %d", s.Epoch(), db.Epoch())
	}
	checkAgainstFresh(t, s, db)
}
