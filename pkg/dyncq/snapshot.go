package dyncq

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"dyncq/internal/tuplekey"
)

// This file implements the MVCC read side of the workspace and the
// per-query delta export feeding the serving layer (internal/server).
//
// Snapshots are copy-on-pin with a version-keyed shared cache
// (snapshot_cache.go): the FIRST pin at a committed version
// materialises the query's result (and the store's summary statistics)
// into immutable leaves under a brief read lock; every further pin
// at the same version is one atomic pointer load returning the SAME
// QuerySnapshot — N concurrent readers share one copy, and re-pinning
// an unchanged version enumerates nothing and allocates nothing. A
// reader iterating a snapshot NEVER blocks Commit — the paper's
// update procedure keeps running while an arbitrarily slow enumeration
// walks a consistent past state. Commits advance a demanded cache by
// rebuilding the leaves the commit's result delta touches and sharing the
// rest, and drop an undemanded one, so a write-only stream pays nothing —
// updates stay the hot path. What a reader renders from a leaf stays with
// the leaf (QuerySnapshot.Blocks), and a rebuilt leaf's rendering is
// spliced from the renderings of the leaves it was merged from, so a
// reader one commit behind formats the rows that commit added only.
//
// One order contract: a snapshot lists its rows in lexicographic order
// on every strategy, so it is a function of the result SET — identical
// across strategies — and the deltas of
// the commits after it merge into it in one sorted pass, here and on a
// subscriber's side of the wire alike. Only the live Handle.Enumerate
// walks the engine's own constant-delay order.
//
// Delta capture is the push half: a registered hook observes, per
// committed version, exactly which tuples each query's result gained
// and lost. The backends produce that delta themselves, as part of the
// commit (queryBackend.finish): core enumerates only the tuples a step
// changed (internal/core/delta.go), IVM reads it off the head tuples its
// delta joins touched. A Boolean query is the arity-0 case of the same
// rule: its delta is the empty tuple coming or going. The workspace keeps
// no copy of any result and walks none per commit; only a Load, which
// resets every structure, is bridged by a one-shot before/after diff
// (resultImage). Each handle's delta goes from its backend straight to
// its read side, in the same per-handle step of the commit
// (Handle.publish): the cache advance first, then the hook. A cached snapshot asks for the
// delta even when no hook does (Handle.emits).

// QuerySnapshot is one query's result pinned at one committed version.
// It is immutable and safe for concurrent use by any number of
// goroutines; it never blocks or observes later writers.
type QuerySnapshot struct {
	name    string
	version uint64
	card    int
	arity   int
	n       int
	// leaves holds the n rows in lexicographic order, cut into immutable
	// runs the snapshots of neighbouring versions share (snapshot_cache.go);
	// empty for a Boolean query.
	leaves []*snapLeaf
	// starts[k] is the number of rows before leaves[k]. Only Tuple needs
	// it, so the first Tuple call builds it and no commit ever does.
	starts atomic.Pointer[[]int]
}

// Name returns the query's registration name.
func (s *QuerySnapshot) Name() string { return s.name }

// Version returns the workspace version the snapshot pinned.
func (s *QuerySnapshot) Version() uint64 { return s.version }

// Cardinality returns |D| of the shared store at the pinned version.
func (s *QuerySnapshot) Cardinality() int { return s.card }

// Arity returns the width of the result tuples (0 for boolean queries).
func (s *QuerySnapshot) Arity() int { return s.arity }

// Count returns |ϕ(D)| at the pinned version.
func (s *QuerySnapshot) Count() uint64 { return uint64(s.n) }

// Len returns the number of result tuples (int-typed Count).
func (s *QuerySnapshot) Len() int { return s.n }

// Answer reports whether ϕ(D) was nonempty at the pinned version.
func (s *QuerySnapshot) Answer() bool { return s.n > 0 }

// Tuple returns the i-th result tuple, in lexicographic order, as a
// window into the snapshot's storage: one binary search over the leaves,
// O(log(n/leaf)), after the first call on a snapshot has numbered them,
// O(n/leaf). Enumerate is the way to walk them all. The window is
// immutable; do not modify it.
func (s *QuerySnapshot) Tuple(i int) []Value {
	if s.arity == 0 {
		return nil
	}
	starts := s.starts.Load()
	if starts == nil {
		numbered := make([]int, len(s.leaves))
		for k := 1; k < len(numbered); k++ {
			numbered[k] = numbered[k-1] + len(s.leaves[k-1].rows)/s.arity
		}
		starts = &numbered
		s.starts.Store(starts) // racing first calls number alike; either wins
	}
	k := sort.SearchInts(*starts, i+1) - 1 // the last leaf starting at or before row i
	off := (i - (*starts)[k]) * s.arity
	return s.leaves[k].rows[off : off+s.arity : off+s.arity]
}

// Enumerate streams the pinned result in lexicographic tuple order —
// the same on every strategy, and the
// order DeltaEvent lists its tuples in. Unlike Handle.Enumerate it
// holds no lock: yield may take arbitrarily long, apply updates, or call
// any workspace method — concurrent writers proceed regardless. The
// yielded slice is a window into the snapshot's storage, valid (and
// immutable) for the snapshot's whole lifetime.
func (s *QuerySnapshot) Enumerate(yield func(tuple []Value) bool) {
	if s.arity == 0 {
		for i := 0; i < s.n; i++ {
			if !yield(nil) {
				return
			}
		}
		return
	}
	for _, l := range s.leaves {
		rows := l.rows
		for off := 0; off < len(rows); off += s.arity {
			if !yield(rows[off : off+s.arity : off+s.arity]) {
				return
			}
		}
	}
}

// Tuples returns the pinned result, in lexicographic order, as a sized
// slice of row windows into the snapshot's storage — one allocation
// regardless of result size. The windows are capacity-capped and
// immutable, exactly like Tuple's: do not modify them (the storage may
// be shared by any number of pinners, and by the snapshots of other
// versions).
func (s *QuerySnapshot) Tuples() [][]Value {
	out := make([][]Value, 0, s.n)
	s.Enumerate(func(t []Value) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Blocks returns the encoded form of every leaf, in row order: its rows'
// tuple lines, `+name(v1,…,vk)\n` with the query's name as the relation,
// the lines of the serving layer's `enumerate` frames. filled is the number
// of leaves this call had to encode, formatted the number of rows it
// formatted to do so. A leaf carries its encoding in a slot filled at most
// once: the first call to reach a leaf fills it and every later call — on
// this snapshot or on the snapshot of any other version that shares the
// leaf — gets those same bytes. A leaf a commit rebuilt is not formatted
// anew: its block is spliced from the blocks of the leaves it was merged
// from, a copy per run of surviving rows, and only the rows no encoded
// leaf holds — the tuples added since — are formatted (snapLeaf.fill); a
// leaf materialised by a cold pin is formatted whole. So a call after a
// commit formats O(|Δ|) rows, and an encoding lives exactly as long as
// some pinned or cached version can still see its rows, or a rebuilt
// leaf's plan its bytes: there is nothing to purge. Callers racing on an
// empty slot may each fill it; a leaf encodes to the same bytes every time
// and the first to finish wins. The returned slice is the caller's, the
// blocks in it are shared: do not modify them. A Boolean query has no
// leaves.
//
//dyncq:hot
func (s *QuerySnapshot) Blocks() (blocks [][]byte, filled, formatted int) {
	blocks = make([][]byte, 0, len(s.leaves))
	for _, l := range s.leaves {
		e := l.enc.Load()
		if e == nil || e.block == nil {
			var rows int
			e, rows = l.fill(e, s.name, s.arity)
			filled++
			formatted += rows
		}
		blocks = append(blocks, e.block)
	}
	return blocks, filled, formatted
}

// newSnapshot returns an empty snapshot of the handle's query stamped
// with the given version and the store's current statistics. Callers
// hold at least the workspace read lock (or exclusive access).
func (h *Handle) newSnapshot(version uint64) *QuerySnapshot {
	return &QuerySnapshot{
		name:    h.name,
		version: version,
		card:    h.ws.store.Cardinality(),
		arity:   h.query.Arity(),
	}
}

// Snapshot pins this query's result at the latest committed version.
// Pinning an already-materialised version is O(1) — one atomic pointer
// load returning the SAME immutable snapshot every concurrent pinner
// shares, with zero enumeration and zero allocation. Only the first pin
// after a spell without readers copies the result out (and sorts it)
// under a brief read lock; from then on, while pins keep coming, each
// commit brings the cached snapshot forward in O(|Δ|) and the next pin is
// O(1) again. Either way the returned snapshot lists its rows in
// lexicographic order whatever the strategy, and is read without any lock
// at all: use it whenever the consumer of an enumeration is slow (a
// network peer, a report writer) — Handle.Enumerate holds the read lock
// for its whole run and therefore stalls writers, a pinned snapshot
// never does.
func (h *Handle) Snapshot() *QuerySnapshot {
	if s := h.cachedSnapshot(); s != nil {
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
	card    int
	order   []string
	queries map[string]*QuerySnapshot
}

// Version returns the pinned workspace version.
func (s *WorkspaceSnapshot) Version() uint64 { return s.version }

// Cardinality returns |D| of the shared store at the pinned version.
func (s *WorkspaceSnapshot) Cardinality() int { return s.card }

// Queries returns the pinned query names in registration order.
func (s *WorkspaceSnapshot) Queries() []string { return append([]string(nil), s.order...) }

// Query returns the named query's pinned snapshot, or nil when the
// snapshot does not cover that name.
func (s *WorkspaceSnapshot) Query(name string) *QuerySnapshot { return s.queries[name] }

// Snapshot pins the named queries (all registered queries when none are
// given) at the latest committed version, under a brief read lock that
// is released before Snapshot returns: reads on the snapshot never block
// a writer, and writers may run while a caller holds one. It panics on a
// name with no registered query.
func (w *Workspace) Snapshot(names ...string) *WorkspaceSnapshot {
	w.mu.RLock()
	defer w.mu.RUnlock()
	s := &WorkspaceSnapshot{
		version: w.version.Load(),
		card:    w.store.Cardinality(),
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
// regardless of backend enumeration order. Both may be
// empty: every committed version emits exactly one event per captured
// query (subscribers track the committed version in lockstep and an
// unchanged result is itself information). A Boolean query's event
// carries the empty tuple: in Added when the answer turned true, in
// Removed when it turned false.
type DeltaEvent struct {
	// Query is the registration name.
	Query string
	// Version is the committed workspace version the event describes.
	Version uint64
	// Added and Removed hold the gained and lost result tuples. The
	// slices (and their tuples) are owned by the hook once delivered.
	Added   [][]Value
	Removed [][]Value
}

// emits reports whether the handle has a read side for a commit's result
// delta: a capture that wants it delivered, or a cached snapshot that
// wants to advance by it. A handle with neither makes the backend do no
// extra work. A commit asks when it opens the backend's commit, to arm
// the emission, and again when the backend has finished, to publish;
// both with the write lock held, and a snapshot cannot appear in the
// cache while a commit is open, only be evicted from it — so a handle
// that publishes always had its delta emitted.
func (h *Handle) emits() bool { return h.capture != nil || h.snap.Load() != nil }

// publish hands one handle's result delta to its read side: it advances
// the cached snapshot by the delta, then delivers the event to the
// capture hook. It runs in the commit's per-handle step right after
// the backend's finish (Workspace.commitLocked), or after a Load's image
// diff, before the version moves — so ev carries the version the commit
// makes. delta is false only for a Load on a handle nobody captures,
// whose cached snapshot is then re-materialised. The advance only reads
// the event's tuples, before the hook owns them.
func (h *Handle) publish(ev DeltaEvent, delta bool) {
	h.advanceSnapshot(ev, delta)
	if h.capture != nil {
		h.capture(ev)
	}
}

// CaptureDeltas starts per-commit delta capture for the named query:
// after every committed version change (Commit or Load — either write
// path), hook receives exactly one DeltaEvent describing how the
// query's result changed. Starting a capture costs O(1) — nothing is
// enumerated or copied. While it is active each commit pays for
// producing the delta: O(|Δ|) on core, the head tuples the delta joins
// touched on IVM — for a Boolean query too, whose delta is the empty
// tuple; a Load pays one result walk before and one after on every
// strategy. A cached snapshot (Handle.Snapshot) arms the same emission
// for as long as readers keep it demanded, so a capture on a polled query
// adds only the hook's own work, and one delta serves both. The hook runs
// inside the commit, in the handle's own maintenance step right after
// its backend finished and the cached snapshot advanced, with the
// workspace write lock held and before the version moves (the event
// carries the version being committed): it MUST NOT block and MUST NOT
// call any workspace, handle, or session method (the serving layer's
// broker satisfies this by handing pre-encoded frames to per-connection
// buffers with a non-blocking send). Every hook runs on the goroutine
// that called Commit or Load, one query after another in registration
// order, and observes strictly increasing versions. Only one capture per query may
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
	h.capture = hook
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

// resultImage copies the backend's current result into a set: the
// "before" half of a one-shot diff across a state change no backend
// tracks incrementally (a Load). Linear in the result, and dropped with
// the diff.
func resultImage(back queryBackend, arity int) *tuplekey.Table[bool] {
	before := tuplekey.NewTable[bool](arity)
	back.Enumerate(func(t []Value) bool {
		before.Put(t, false)
		return true
	})
	return before
}

// diffImage compares the backend's current result with an image taken
// earlier (which it consumes): one enumeration marks the kept tuples and
// collects the added ones, one sweep over the image collects what the
// result no longer contains. Both sides come back in DeltaEvent order.
func diffImage(before *tuplekey.Table[bool], back queryBackend) (added, removed [][]Value) {
	back.Enumerate(func(t []Value) bool {
		if before.Has(t) {
			before.Put(t, true)
		} else {
			added = append(added, append([]Value(nil), t...))
		}
		return true
	})
	before.Range(func(t []Value, kept bool) bool {
		if !kept {
			removed = append(removed, append([]Value(nil), t...)) // t aliases the image
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
