package main

import (
	"fmt"
	"testing"
	"testing/quick"
)

// decode is TryDecode for codes the test knows were assigned.
func decode(t *testing.T, d *dict, code int64) string {
	t.Helper()
	name, ok := d.TryDecode(code)
	if !ok {
		t.Fatalf("TryDecode(%d): never assigned", code)
	}
	return name
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := newDict()
	names := []string{"alice", "bob", "carol", "", "alice", "bob", "日本語", "x y z"}
	codes := make([]int64, len(names))
	for i, n := range names {
		codes[i] = d.Encode(n)
	}
	for i, n := range names {
		if got := decode(t, d, codes[i]); got != n {
			t.Errorf("TryDecode(Encode(%q)) = %q", n, got)
		}
	}
	// 6 distinct names: alice bob carol "" 日本語 "x y z"
	if n := d.Stats().Size; n != 6 {
		t.Errorf("Stats().Size = %d, want 6", n)
	}
}

func TestEncodeStable(t *testing.T) {
	d := newDict()
	a1 := d.Encode("a")
	b := d.Encode("b")
	a2 := d.Encode("a")
	if a1 != a2 {
		t.Errorf("Encode(a) twice gave %d then %d", a1, a2)
	}
	if a1 == b {
		t.Errorf("distinct names share code %d", a1)
	}
}

func TestCodesStartAtOne(t *testing.T) {
	d := newDict()
	if c := d.Encode("first"); c != 1 {
		t.Errorf("first code = %d, want 1", c)
	}
	if c := d.Encode("second"); c != 2 {
		t.Errorf("second code = %d, want 2", c)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	d := newDict()
	f := func(names []string) bool {
		for _, n := range names {
			if got, ok := d.TryDecode(d.Encode(n)); !ok || got != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickInjective(t *testing.T) {
	d := newDict()
	seen := make(map[int64]string)
	f := func(name string) bool {
		c := d.Encode(name)
		if prev, ok := seen[c]; ok {
			return prev == name
		}
		seen[c] = name
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTryDecode(t *testing.T) {
	d := newDict()
	c := d.Encode("known")
	if got, ok := d.TryDecode(c); !ok || got != "known" {
		t.Errorf("TryDecode(%d) = %q,%v want known,true", c, got, ok)
	}
	for _, bad := range []int64{0, -1, 2, 1 << 40} {
		if got, ok := d.TryDecode(bad); ok {
			t.Errorf("TryDecode(%d) = %q,true want _,false", bad, got)
		}
	}
}

func TestStableUnderReinsertion(t *testing.T) {
	// Codes must survive arbitrary interleavings of old and new names:
	// re-encoding any prefix never shifts an assigned code.
	d := newDict()
	names := make([]string, 200)
	codes := make([]int64, 200)
	for i := range names {
		names[i] = fmt.Sprintf("name-%d", i)
		codes[i] = d.Encode(names[i])
		// Re-insert every name seen so far, in reverse.
		for j := i; j >= 0; j-- {
			if c := d.Encode(names[j]); c != codes[j] {
				t.Fatalf("after %d inserts: Encode(%s) = %d, want %d", i+1, names[j], c, codes[j])
			}
		}
	}
	if n := d.Stats().Size; n != 200 {
		t.Errorf("Stats().Size = %d, want 200", n)
	}
	for i, c := range codes {
		if got := decode(t, d, c); got != names[i] {
			t.Errorf("TryDecode(%d) = %q, want %q", c, got, names[i])
		}
	}
}

func TestStatsHitRate(t *testing.T) {
	d := newDict()
	if st := d.Stats(); st != (dictStats{}) || st.HitRate() != 0 {
		t.Fatalf("empty dictionary: %+v, hit rate %v", st, st.HitRate())
	}
	for _, n := range []string{"a", "b", "a", "a"} {
		d.Encode(n)
	}
	if st := d.Stats(); st != (dictStats{Size: 2, Hits: 2, Misses: 2}) || st.HitRate() != 0.5 {
		t.Fatalf("after a b a a: %+v, hit rate %v", st, st.HitRate())
	}
}
