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

// spawned is the channel spawn waits on: a package variable, so that
// starting allocateMany passes it nothing to allocate.
var spawned = make(chan struct{})

// spawn allocates in its own frame, then starts a goroutine that
// allocates 100 times through allocateElsewhere, and waits for it.
//
//go:noinline
func spawn() {
	sink = new([4]int64)
	go allocateMany()
	<-spawned
}

//go:noinline
func allocateMany() {
	for range 100 {
		allocateElsewhere()
	}
	spawned <- struct{}{}
}

// TestCountSkipsGoroutinesItStarts: an allocation on a goroutine that
// the measured call starts is not counted through the frame that started
// it — a new goroutine's stack begins at its own function — so Count
// through spawn counts spawn's own allocation alone, and the started
// goroutine's 100 are counted only through a frame on their own stack.
func TestCountSkipsGoroutinesItStarts(t *testing.T) {
	const starter, elsewhere = "dyncq/internal/allocs.spawn", "dyncq/internal/allocs.allocateElsewhere"
	fn := func() {
		for range 10 {
			spawn()
		}
	}
	fn() // the runtime keeps the finished goroutines for reuse
	if n, stacks := Count(fn, starter); n != 10 {
		t.Fatalf("Count through %s = %d, want its own 10:\n%s", starter, n, strings.Join(stacks, "\n"))
	}
	if n, stacks := Count(fn, elsewhere); n != 1000 {
		t.Fatalf("Count through %s = %d, want the started goroutines' 1000:\n%s", elsewhere, n, strings.Join(stacks, "\n"))
	}
}
