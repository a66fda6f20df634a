package allocs

import (
	"strings"
	"testing"
)

var sink *[4]int64

//go:noinline
func allocate() { sink = new([4]int64) }

//go:noinline
func allocateElsewhere() { sink = new([4]int64) }

// allocateUnder allocates in its own frame, then calls allocate.
//
//go:noinline
func allocateUnder() {
	sink = new([4]int64)
	allocate()
}

// TestCountsOnlyNamedFrames: Count counts the allocations made under the
// frames it is given, each allocating stack once, and none made under
// another function in the same window.
func TestCountsOnlyNamedFrames(t *testing.T) {
	const here, elsewhere = "dyncq/internal/allocs.allocate", "dyncq/internal/allocs.allocateElsewhere"
	fn := func() {
		for range 100 {
			allocate()
		}
		for range 50 {
			allocateElsewhere()
		}
	}
	fn()
	for _, c := range []struct {
		frames []string
		want   int64
	}{{[]string{here}, 100}, {[]string{elsewhere}, 50}, {[]string{here, elsewhere}, 150}, {[]string{"dyncq/internal/allocs.missing"}, 0}} {
		n, stacks := Count(fn, c.frames...)
		if n != c.want {
			t.Fatalf("Count through %v = %d, want %d:\n%s", c.frames, n, c.want, strings.Join(stacks, "\n"))
		}
		if c.want > 0 && len(stacks) != len(c.frames) {
			t.Fatalf("Count through %v described %d stacks, want %d:\n%s", c.frames, len(stacks), len(c.frames), strings.Join(stacks, "\n"))
		}
	}
}

// TestCountExceptSkipsInnermost: CountExcept leaves out the allocations
// whose innermost frame it is given, and only those: of allocateUnder's
// two allocations, the one it leaves to allocate is left out.
func TestCountExceptSkipsInnermost(t *testing.T) {
	const here, under = "dyncq/internal/allocs.allocate", "dyncq/internal/allocs.allocateUnder"
	fn := func() {
		for range 100 {
			allocate()
		}
		for range 50 {
			allocateUnder()
		}
	}
	fn()
	if n, stacks := CountExcept(fn, []string{here}, here, under); n != 50 {
		t.Fatalf("CountExcept of %s = %d, want 50:\n%s", here, n, strings.Join(stacks, "\n"))
	}
}
