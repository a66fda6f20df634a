package dyncq

import (
	"fmt"
	"slices"

	"dyncq/internal/tuplekey"
)

// This file implements the MVCC read side of the workspace and the
// per-query delta export feeding the serving layer (internal/server).
//
// Snapshots are copy-on-pin with a version-keyed shared cache
// (snapshot_cache.go): the FIRST pin at a committed version
// materialises the query's result (and the store's summary statistics)
// into an immutable buffer under a brief read lock; every further pin
// at the same version is one atomic pointer load returning the SAME
// QuerySnapshot — N concurrent readers share one buffer, and re-pinning
// an unchanged version enumerates nothing and allocates nothing. A
// reader iterating a snapshot NEVER blocks ApplyBatch — the paper's
// update procedure keeps running while an arbitrarily slow enumeration
// walks a consistent past state. Commits advance a demanded cache in
// place (delta patch or sized re-enumeration) and drop an undemanded
// one, so a write-only stream pays nothing — updates stay the hot path.
//
// Delta capture is the push half: a registered hook observes, per
// committed version, exactly which tuples each query's result gained
// and lost. The backends produce that delta themselves, as part of the
// commit (queryBackend.finish): core enumerates only the tuples a step
// changed (internal/core/delta.go), IVM reads it off the head tuples its
// delta joins touched, recompute — the baseline and the oracle for the
// other two — evaluates before and after. The workspace keeps no copy of
// any result and walks none per commit; only a Load, which resets every
// structure, is bridged by a one-shot before/after diff (resultImage).
// The cache advance reuses the event: for the canonically ordered
// strategies it patches the previous flat buffer in O(|result| + |delta|)
// with no backend enumeration at all.

// QuerySnapshot is one query's result pinned at one committed version.
// It is immutable and safe for concurrent use by any number of
// goroutines; it never blocks or observes later writers.
type QuerySnapshot struct {
	name    string
	version uint64
	epoch   uint64
	card    int
	adom    int
	arity   int
	n       int
	flat    []Value // n×arity values, row-major
}

// Name returns the query's registration name.
func (s *QuerySnapshot) Name() string { return s.name }

// Version returns the workspace version the snapshot pinned.
func (s *QuerySnapshot) Version() uint64 { return s.version }

// StoreEpoch returns the shared store's epoch at the pinned version.
func (s *QuerySnapshot) StoreEpoch() uint64 { return s.epoch }

// Cardinality returns |D| of the shared store at the pinned version.
func (s *QuerySnapshot) Cardinality() int { return s.card }

// ActiveDomainSize returns n = |adom(D)| at the pinned version.
func (s *QuerySnapshot) ActiveDomainSize() int { return s.adom }

// Arity returns the width of the result tuples (0 for boolean queries).
func (s *QuerySnapshot) Arity() int { return s.arity }

// Count returns |ϕ(D)| at the pinned version.
func (s *QuerySnapshot) Count() uint64 { return uint64(s.n) }

// Len returns the number of result tuples (int-typed Count).
func (s *QuerySnapshot) Len() int { return s.n }

// Answer reports whether ϕ(D) was nonempty at the pinned version.
func (s *QuerySnapshot) Answer() bool { return s.n > 0 }

// Tuple returns the i-th result tuple as a window into the snapshot's
// buffer. The window is immutable; do not modify it.
func (s *QuerySnapshot) Tuple(i int) []Value {
	if s.arity == 0 {
		return nil
	}
	return s.flat[i*s.arity : (i+1)*s.arity]
}

// Enumerate streams the pinned result in the order the backend
// enumerated it at pin time. Unlike Handle.Enumerate it holds no lock:
// yield may take arbitrarily long, apply updates, or call any workspace
// method — concurrent writers proceed regardless. The yielded slice is
// a window into the snapshot's buffer, valid (and immutable) for the
// snapshot's whole lifetime.
func (s *QuerySnapshot) Enumerate(yield func(tuple []Value) bool) {
	if s.arity == 0 {
		for i := 0; i < s.n; i++ {
			if !yield(nil) {
				return
			}
		}
		return
	}
	for i := 0; i < s.n; i++ {
		if !yield(s.flat[i*s.arity : (i+1)*s.arity]) {
			return
		}
	}
}

// Tuples returns the pinned result as a sized slice of row windows into
// the snapshot's buffer — one allocation regardless of result size. The
// windows are capacity-capped and immutable, exactly like Tuple's: do
// not modify them (the buffer may be shared by any number of pinners).
func (s *QuerySnapshot) Tuples() [][]Value {
	out := make([][]Value, s.n)
	if s.arity == 0 {
		return out // n empty tuples, same shape Enumerate yields
	}
	for i := range out {
		out[i] = s.flat[i*s.arity : (i+1)*s.arity : (i+1)*s.arity]
	}
	return out
}

// snapshotLocked materialises the handle's current result — the
// copy-on-pin slow path behind the version-keyed cache. Callers hold at
// least the workspace read lock (or exclusive access).
//
// Order contract: a core backend's snapshot preserves the engine's live
// enumeration order byte for byte; every other strategy's snapshot is
// canonicalised to lexicographic tuple order. IVM enumerates a Go map
// (nondeterministic between identical pins), so without the sort two
// pins of one unchanged version could disagree — and the delta-patched
// advance needs a deterministic order to merge DeltaEvents into.
func (h *Handle) snapshotLocked() *QuerySnapshot {
	w := h.ws
	s := &QuerySnapshot{
		name:    h.name,
		version: w.version.Load(),
		epoch:   w.store.Epoch(),
		card:    w.store.Cardinality(),
		adom:    w.store.ActiveDomainSize(),
		arity:   h.query.Arity(),
	}
	h.fillSnapshot(s)
	return s
}

// fillSnapshot populates n and the flat buffer from the backend's
// current result, enforcing the order contract above. Callers hold the
// read lock or exclusive access.
func (h *Handle) fillSnapshot(s *QuerySnapshot) {
	if s.arity == 0 {
		// Boolean query: the result is {()} or ∅; do not rely on the
		// backend enumerating empty tuples.
		s.n = int(h.back.Count())
		return
	}
	// Count is O(1) for the maintained strategies, so the flat buffer is
	// one exactly-sized allocation; recompute's Count is itself a full
	// evaluation, so it keeps the growing append instead of paying twice.
	if h.strategy != StrategyRecompute {
		s.flat = make([]Value, 0, int(h.back.Count())*s.arity)
	}
	h.back.Enumerate(func(t []Value) bool {
		s.flat = append(s.flat, t...)
		return true
	})
	s.n = len(s.flat) / s.arity
	if h.strategy != StrategyCore {
		sortFlatRows(s.flat, s.arity)
	}
}

// Snapshot pins this query's result at the latest committed version.
// Pinning an already-materialised version is O(1) — one atomic pointer
// load returning the SAME immutable snapshot every concurrent pinner
// shares, with zero enumeration and zero result-buffer allocation. Only
// the first pin of a version copies the result out under a brief read
// lock. Either way the returned snapshot is read without any lock at
// all: use it whenever the consumer of an enumeration is slow (a
// network peer, a report writer) — Handle.Enumerate holds the read lock
// for its whole run and therefore stalls writers, a pinned snapshot
// never does.
func (h *Handle) Snapshot() *QuerySnapshot {
	if s := h.CachedSnapshot(); s != nil {
		return s
	}
	h.ws.mu.RLock()
	defer h.ws.mu.RUnlock()
	return h.pinLocked()
}

// WorkspaceSnapshot pins several queries' results at ONE committed
// version: all pinned queries observed the same committed prefix of the
// update stream. Like QuerySnapshot it is immutable, lock-free, and
// safe for concurrent use.
type WorkspaceSnapshot struct {
	version uint64
	epoch   uint64
	card    int
	adom    int
	order   []string
	queries map[string]*QuerySnapshot
}

// Version returns the pinned workspace version.
func (s *WorkspaceSnapshot) Version() uint64 { return s.version }

// StoreEpoch returns the shared store's epoch at the pinned version.
func (s *WorkspaceSnapshot) StoreEpoch() uint64 { return s.epoch }

// Cardinality returns |D| of the shared store at the pinned version.
func (s *WorkspaceSnapshot) Cardinality() int { return s.card }

// ActiveDomainSize returns n = |adom(D)| at the pinned version.
func (s *WorkspaceSnapshot) ActiveDomainSize() int { return s.adom }

// Queries returns the pinned query names in registration order.
func (s *WorkspaceSnapshot) Queries() []string { return append([]string(nil), s.order...) }

// Query returns the named query's pinned snapshot, or nil when the
// snapshot does not cover that name.
func (s *WorkspaceSnapshot) Query(name string) *QuerySnapshot { return s.queries[name] }

// Snapshot pins the named queries (all registered queries when none are
// given) at the latest committed version. It panics on a name with no
// registered query, exactly as WorkspaceView reads do.
func (w *Workspace) Snapshot(names ...string) *WorkspaceSnapshot {
	w.mu.RLock()
	defer w.mu.RUnlock()
	s := &WorkspaceSnapshot{
		version: w.version.Load(),
		epoch:   w.store.Epoch(),
		card:    w.store.Cardinality(),
		adom:    w.store.ActiveDomainSize(),
		queries: make(map[string]*QuerySnapshot),
	}
	if len(names) == 0 {
		for _, h := range w.order {
			s.order = append(s.order, h.name)
			s.queries[h.name] = h.pinLocked()
		}
		return s
	}
	for _, name := range names {
		h := w.handles[name]
		if h == nil {
			panic(fmt.Sprintf("dyncq: no query %q registered in this workspace", name))
		}
		if _, dup := s.queries[name]; dup {
			continue
		}
		s.order = append(s.order, name)
		s.queries[name] = h.pinLocked()
	}
	return s
}

// ---- delta capture ----

// DeltaEvent is one query's result change at one committed version: the
// tuples the result gained and lost relative to the previous version.
// Added and Removed are disjoint, each sorted in lexicographic tuple
// order — so the event's rendering is deterministic, byte for byte,
// regardless of worker count or backend enumeration order. Both may be
// empty: every committed version emits exactly one event per captured
// query (subscribers track the committed version in lockstep and an
// unchanged result is itself information).
type DeltaEvent struct {
	// Query is the registration name.
	Query string
	// Version is the committed workspace version the event describes.
	Version uint64
	// Epoch is the shared store's epoch at that version.
	Epoch uint64
	// Added and Removed hold the gained and lost result tuples. The
	// slices (and their tuples) are owned by the hook once delivered.
	Added   [][]Value
	Removed [][]Value
}

// deltaCapture is a handle's active delta export: the hook, the previous
// answer bit of a Boolean query (whose whole delta is that bit flipping,
// read in O(1) after the commit), and the open commit's result delta,
// parked by the backend's finish until afterCommit builds the event.
type deltaCapture struct {
	hook           func(DeltaEvent)
	boolean        bool
	prev           bool
	added, removed [][]Value
}

// emits reports whether the handle's backend should produce the open
// commit's result delta: only while a capture wants it, so an uncaptured
// commit does no extra work.
func (h *Handle) emits() bool { return h.capture != nil && !h.capture.boolean }

// park hands the open commit's result delta to the capture, if any.
func (h *Handle) park(added, removed [][]Value) {
	if c := h.capture; c != nil {
		c.added, c.removed = added, removed
	}
}

// CaptureDeltas starts per-commit delta capture for the named query:
// after every committed version change (Apply, ApplyBatch, Load — any
// write path), hook receives exactly one DeltaEvent describing how the
// query's result changed. Starting a capture costs O(1) — nothing is
// enumerated or copied (a recompute-backed Boolean query evaluates its
// answer once). While it is active each commit pays for producing the
// delta: O(|Δ|) on core, the head tuples the delta joins touched on IVM,
// two full evaluations on recompute; a Load pays one result walk before
// and one after on every strategy. The hook runs inside the commit, with
// the workspace write lock held: it MUST NOT block and MUST NOT call any
// workspace, handle, or session method (the serving layer's broker
// satisfies this by handing pre-encoded frames to per-connection
// buffers with a non-blocking send). Hooks of different queries may run
// concurrently (the capture fan-out uses the workspace worker pool);
// one query's hook is never invoked concurrently with itself and
// observes strictly increasing versions. Only one capture per query may
// be active; Unregister drops it.
func (w *Workspace) CaptureDeltas(name string, hook func(DeltaEvent)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := w.handles[name]
	if h == nil {
		return fmt.Errorf("dyncq: no query %q registered in this workspace", name)
	}
	if h.capture != nil {
		return fmt.Errorf("dyncq: query %q already has an active delta capture", name)
	}
	if hook == nil {
		return fmt.Errorf("dyncq: nil delta hook for query %q", name)
	}
	c := &deltaCapture{hook: hook, boolean: h.query.Arity() == 0}
	if c.boolean {
		c.prev = h.back.Answer()
	}
	h.capture = c
	return nil
}

// StopDeltaCapture stops delta capture for the named query, reporting
// whether a capture was active. Events already delivered stay
// delivered; no further events follow.
func (w *Workspace) StopDeltaCapture(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := w.handles[name]
	if h == nil || h.capture == nil {
		return false
	}
	h.capture = nil
	return true
}

// afterCommitLocked fans the post-commit read-side maintenance out over
// every handle that needs any: delivering the captured delta
// (CaptureDeltas) and the cached-snapshot advance (snapshot_cache.go), on
// the workspace worker pool (per-handle captures and caches are private;
// backend reads over the now-quiescent store are safe concurrently).
// Called at the end of every committed state change, with exclusive
// access, after w.version moved. Handles with neither a capture nor a
// cached snapshot cost nothing here — the paper's per-update bound is
// untouched for write-only workloads.
func (w *Workspace) afterCommitLocked() {
	var active []int
	for i, h := range w.order {
		if h.capture != nil || h.snap.Load() != nil {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		return
	}
	runPool(active, w.workers, func(i int) {
		w.order[i].afterCommit()
	})
}

// afterCommit runs one handle's post-commit read-side maintenance: build
// the version's event from the delta the backend parked, advance the
// cached snapshot, deliver. The snapshot advance reads the DeltaEvent
// BEFORE the hook is delivered — the event's slices are owned by the hook
// once delivered, and the advance only copies values out, never retains
// them.
func (h *Handle) afterCommit() {
	c := h.capture
	if c == nil {
		h.advanceSnapshot(nil)
		return
	}
	ev := DeltaEvent{Query: h.name, Version: h.ws.version.Load(), Epoch: h.ws.store.Epoch(),
		Added: c.added, Removed: c.removed}
	c.added, c.removed = nil, nil
	if c.boolean {
		now := h.back.Answer()
		if now && !c.prev {
			ev.Added = [][]Value{nil}
		} else if !now && c.prev {
			ev.Removed = [][]Value{nil}
		}
		c.prev = now
	}
	h.advanceSnapshot(&ev)
	c.hook(ev)
}

// resultImage copies the backend's current result into a set: the
// "before" half of a one-shot diff across a state change no backend
// tracks incrementally (a Load; every captured commit of the recompute
// strategy). Linear in the result, and dropped with the diff.
func resultImage(back queryBackend) *tuplekey.Map[bool] {
	before := tuplekey.NewMap[bool](0)
	back.Enumerate(func(t []Value) bool {
		before.Put(append([]Value(nil), t...), false)
		return true
	})
	return before
}

// diffImage compares the backend's current result with an image taken
// earlier (which it consumes): one enumeration marks the kept tuples and
// collects the added ones, one sweep over the image collects what the
// result no longer contains. Both sides come back in DeltaEvent order.
func diffImage(before *tuplekey.Map[bool], back queryBackend) (added, removed [][]Value) {
	back.Enumerate(func(t []Value) bool {
		if _, known := before.Get(t); known {
			before.Put(t, true) // the existing key is kept; t is not retained
		} else {
			added = append(added, append([]Value(nil), t...))
		}
		return true
	})
	before.Range(func(t []Value, kept bool) bool {
		if !kept {
			removed = append(removed, t)
		}
		return true
	})
	sortTuplesLex(added)
	sortTuplesLex(removed)
	return added, removed
}

// sortTuplesLex orders tuples lexicographically — the deterministic
// order every DeltaEvent is delivered in.
func sortTuplesLex(ts [][]Value) { slices.SortFunc(ts, slices.Compare[[]Value]) }
