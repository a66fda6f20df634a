// Package allocs counts the heap allocations a piece of code makes by
// the call stacks that made them, for the allocation gates of the tests.
// It is test code: the dyncq binary does not link it.
package allocs

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
)

// Count runs fn with every heap allocation sampled
// (runtime.MemProfileRate = 1) and returns how many allocations made
// meanwhile have one of frames — fully qualified function names, such as
// "dyncq/pkg/dyncq.(*Workspace).Commit" — on their call stack, with one
// description per allocating stack. What other goroutines allocate — the
// runtime's own, such as the scavenger's timers, included — is not
// counted, so a gate on the result fails only on the code it names. A
// profile record keeps the innermost 32 frames of its stack: an
// allocation nested deeper than that below a named frame would go
// uncounted.
func Count(fn func(), frames ...string) (n int64, stacks []string) {
	return CountExcept(fn, nil, frames...)
}

// CountExcept is Count, leaving out every allocation whose innermost
// frame — the function that allocated — is one of innermost.
func CountExcept(fn func(), innermost []string, frames ...string) (n int64, stacks []string) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := byStack()
	fn()
	for stk, objs := range byStack() {
		d := objs - before[stk]
		if d <= 0 {
			continue
		}
		var lines []string
		through, excepted := false, false
		callers := runtime.CallersFrames(stk[:])
		for {
			f, more := callers.Next()
			if f.Function != "" {
				excepted = excepted || len(lines) == 0 && slices.Contains(innermost, f.Function)
				through = through || slices.Contains(frames, f.Function)
				lines = append(lines, fmt.Sprintf("\t%s\n\t\t%s:%d", f.Function, f.File, f.Line))
			}
			if !more {
				break
			}
		}
		if through && !excepted {
			n += d
			stacks = append(stacks, fmt.Sprintf("%d allocations at\n%s", d, strings.Join(lines, "\n")))
		}
	}
	return n, stacks
}

// byStack returns the allocations of every memory-profile record, by
// stack, after two forced collections: the profile publishes an
// allocation only once a collection has completed after it.
func byStack() map[[32]uintptr]int64 {
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
