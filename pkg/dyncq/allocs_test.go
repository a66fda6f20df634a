package dyncq

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// commitFrame is the function whose allocations commitAllocs counts.
const commitFrame = "dyncq/pkg/dyncq.(*Workspace).Commit"

// commitAllocs runs fn with every heap allocation sampled
// (runtime.MemProfileRate = 1) and returns how many allocations made
// meanwhile have (*Workspace).Commit on their call stack, with one
// description per allocating stack. What other goroutines allocate — the
// runtime's own, such as the scavenger's timers, included — is not
// counted, so a gate on the result fails only on the commit path. A
// profile record keeps the innermost 32 frames of its stack: an
// allocation nested deeper than that below Commit would go uncounted.
func commitAllocs(fn func()) (n int64, stacks []string) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocsByStack()
	fn()
	for stk, objs := range allocsByStack() {
		d := objs - before[stk]
		if d <= 0 {
			continue
		}
		var lines []string
		through := false
		frames := runtime.CallersFrames(stk[:])
		for {
			f, more := frames.Next()
			if f.Function != "" {
				through = through || f.Function == commitFrame
				lines = append(lines, fmt.Sprintf("\t%s\n\t\t%s:%d", f.Function, f.File, f.Line))
			}
			if !more {
				break
			}
		}
		if through {
			n += d
			stacks = append(stacks, fmt.Sprintf("%d allocations at\n%s", d, strings.Join(lines, "\n")))
		}
	}
	return n, stacks
}

// allocsByStack returns the allocations of every memory-profile record,
// by stack, after two forced collections: the profile publishes an
// allocation only once a collection has completed after it.
func allocsByStack() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for ok := false; !ok; {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// allocSink keeps the test allocations below on the heap.
var allocSink []*[4]int64

// TestCommitAllocsCountsOnlyCommit: commitAllocs counts an allocation
// made inside Commit — here by a capture hook, once per commit — and not
// one made meanwhile on another goroutine.
func TestCommitAllocsCountsOnlyCommit(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	if _, err := ws.Register("q", "Q(x) :- T(x)"); err != nil {
		t.Fatal(err)
	}
	hooked := make([]*[4]int64, 0, 1)
	armed := false
	if err := ws.CaptureDeltas("q", func(DeltaEvent) {
		if armed {
			hooked = append(hooked[:0], new([4]int64))
		}
	}); err != nil {
		t.Fatal(err)
	}
	// S is outside the query: each commit changes the store and calls the
	// hook with an empty event, and allocates nothing else once warm.
	ins, del := []Update{Insert("S", 1)}, []Update{Delete("S", 1)}
	const commits = 100
	cycle := func() {
		for i := 0; i < commits/2; i++ {
			for _, b := range [][]Update{ins, del} {
				if n, _, err := ws.Commit(b); err != nil || n != 1 {
					t.Fatalf("commit netted %d (err %v)", n, err)
				}
			}
		}
	}
	cycle()
	stop, done := make(chan struct{}), make(chan int)
	go func() {
		elsewhere := 0
		for {
			select {
			case <-stop:
				done <- elsewhere
				return
			default:
				allocSink = append(allocSink[:0], new([4]int64))
				elsewhere++
			}
		}
	}()
	quiet, _ := commitAllocs(cycle)
	armed = true
	n, stacks := commitAllocs(cycle)
	close(stop)
	elsewhere := <-done
	t.Logf("%d allocations counted with the hook allocating, %d without; %d made on another goroutine meanwhile", n, quiet, elsewhere)
	if quiet != 0 || n != commits {
		t.Fatalf("commitAllocs counted %d allocations with the hook allocating once per commit and %d without, want %d and 0:\n%s",
			n, quiet, commits, strings.Join(stacks, "\n"))
	}
	if elsewhere == 0 {
		t.Fatal("the other goroutine allocated nothing during the windows; the test is vacuous")
	}
	if len(stacks) != 1 || !strings.Contains(stacks[0], "TestCommitAllocsCountsOnlyCommit.func1") {
		t.Fatalf("want the hook's one allocating stack, got:\n%s", strings.Join(stacks, "\n"))
	}
}
