package dyncq

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dyncq/internal/core"
	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/ivm"
	"dyncq/internal/qtree"
	"dyncq/internal/stream"
	"dyncq/internal/tuplekey"
)

// This file implements the workspace front door: ONE shared
// dyndb.Database serving any number of registered live queries. The
// paper maintains one data structure per fixed query; a production
// system serves many queries over one update stream, and the shape both
// the UCQ extension (Berkholz et al. 2018) and the free-access-patterns
// line (Kara et al. 2023) presuppose is exactly this one — a shared
// database with per-query maintenance structures fed by a common delta
// stream.
//
// Every write — Commit, and through it the serving layer's apply verb and
// batches and the CLI's update files — runs one pipeline, commitLocked; a
// single update is a batch of one, as in the paper's single-tuple update
// model. Per commit: coalesce once,
// validate once (against the union schema of all registered queries and
// the store, so a bad batch is rejected atomically), compute the net
// delta against the shared store once (dyndb.NetDelta, which resolves
// each command's relation name to the store's relation id once; the
// union schema is mirrored into the store with dyndb.Require, so that
// same pass checks it), apply it to the store once — the store mutation
// count is independent of how many queries are registered — and fan the
// same delta out to every query's maintenance structure (core / ivm,
// routed per query by classification). IVM backends need the store in a
// specific state relative to each relation's mutation (deletion deltas
// evaluate on the pre-state, insertion deltas on the post-state), so the
// fan-out interleaves per-relation hooks with the store mutation; core
// backends receive the whole delta after the store is current, in delta
// order. The handles are maintained one after another, in registration
// order, on the goroutine that called Commit: the paper's bounds are for
// one sequential machine, and a commit starts no goroutine. A warmed
// commit allocates nothing on the pipeline's side.
//
// Load, the one write outside that pipeline, validates first too: a
// database that clashes with the union schema is rejected with nothing
// changed, and an accepted one replaces the store and rebuilds every
// backend from it, which cannot fail (the arities are checked).
//
// Concurrency: a Workspace is safe for concurrent use — writers
// serialise behind a write lock and commit atomically, readers (every
// Handle method and Snapshot) share a read lock and always observe the state
// after some whole prefix of the committed batch sequence, never a torn
// mid-batch state. Version() counts committed state changes across ALL
// queries: after any commit, every registered query observes the same
// version.

// queryBackend is the per-query maintenance interface the workspace
// drives. The workspace owns the shared store and the update pipeline;
// backends only maintain their per-query view structures.
type queryBackend interface {
	// Reads, in the uniform Handle contract.
	Count() uint64
	Answer() bool
	Enumerate(yield func(tuple []Value) bool)
	Contains(tuple []Value) bool

	// The write side is one sequence per commit, driven only by the
	// workspace's commit pipeline; a single update is a net delta of one.
	// begin opens a nonempty net delta of n commands, says
	// whether the commit's result delta is wanted, and reports whether the
	// backend needs the relation-phased store schedule for it: preDelete
	// and postInsert then bracket each relation's store mutation (IVM's
	// deletion deltas evaluate on the pre-state, its insertion deltas on
	// the post-state). When no registered backend asks, the workspace
	// applies the whole net delta to the store in one call and skips both
	// hooks. finish closes the commit with the full delta once the
	// store is current and returns what it did to the query's result —
	// disjoint, each side in lexicographic order, owned by the caller —
	// or nil, nil if begin did not ask.
	begin(n int, emit bool) (phased bool)
	preDelete(rel string, tuples [][]Value)
	postInsert(rel string, tuples [][]Value)
	finish(survivors []Update) (added, removed [][]Value)

	// rebuild brings the structure up to date with the shared store's
	// current contents (Load, late registration). The workspace has
	// checked the store's arities against the query first, so a rebuild
	// cannot fail.
	rebuild()
}

// WorkspaceOptions configures NewWorkspace. It has no fields.
type WorkspaceOptions struct{}

// Workspace is the shared front door: one dynamic database, one update
// pipeline, many registered live queries. Build one with NewWorkspace;
// the zero value is not ready. Safe for concurrent use.
type Workspace struct {
	mu      sync.RWMutex
	store   *dyndb.Database
	schema  map[string]int // union schema over all registered queries
	owner   map[string]string
	handles map[string]*Handle
	order   []*Handle // registration order

	// rels is the per-relation grouping of the relation-phased store
	// schedule. Its slices are reused across commits (up to keepGrouped
	// commands) and cleared after each, so they hold no batch tuple between
	// commits. Guarded by the write lock; backends do not retain them.
	rels []relDelta

	// version counts committed state changes. It is atomic so the
	// cached-snapshot fast path (Handle.cachedSnapshot) can validate a
	// pinned version without the read lock; it only ever advances with
	// exclusive access to the workspace.
	version atomic.Uint64
}

// NewWorkspace returns an empty workspace with no registered queries.
// Updates applied before any registration only populate the shared
// store; queries registered later are brought up to date against it.
func NewWorkspace(opt WorkspaceOptions) *Workspace {
	return &Workspace{
		store:   dyndb.New(),
		schema:  make(map[string]int),
		owner:   make(map[string]string),
		handles: make(map[string]*Handle),
	}
}

// Handle is the read surface of one registered live query. All read
// methods are safe for concurrent use and observe the workspace's
// latest committed state; use Workspace.Snapshot for multi-call snapshot
// consistency. A Handle stays valid until its query is unregistered;
// after that, reads on a retained handle are undefined beyond being
// safe: they answer from the structure's last maintained state. Drop
// handles when unregistering.
type Handle struct {
	ws       *Workspace
	name     string
	query    *cq.Query
	class    qtree.Classification
	strategy Strategy
	back     queryBackend

	// maintainNS accumulates the time the commit pipeline spent
	// maintaining this query (delta hooks, finish, and the read side the
	// result delta feeds, publish), and batches the number of commits
	// that changed the store — every one, a single update included — the
	// per-query split of the shared pipeline's cost (MaintenanceNS).
	maintainNS int64
	batches    int64

	// capture is the active delta export (CaptureDeltas): the hook, nil
	// while no subscriber wants this query's per-commit deltas.
	capture func(DeltaEvent)

	// snap is the version-keyed cached snapshot (snapshot_cache.go): the
	// latest materialised QuerySnapshot, shared by every pinner at its
	// version. nil until a reader pins, and again after the demand-decay
	// invalidation. The pointer only moves with the workspace write lock
	// held or under the read lock (slow-path pin, where writers are
	// excluded), which is what makes the lock-free fast path's
	// pointer-then-version load order linearizable.
	snap atomic.Pointer[QuerySnapshot]

	// demand is the cache's work budget, in words: every pin re-arms it
	// to what re-materialising the pinned snapshot writes
	// (snapshotWords), every advance is charged the words it wrote, and a
	// commit that finds it spent invalidates the cache instead of
	// advancing it — so after the last pin the unread advances cost at
	// most one cold pin plus one advance, and a write-only stream stops
	// paying for the emission and the advance, and stops holding the
	// copy, a bounded number of commits later.
	demand atomic.Int64

	// Cache observability (SnapshotCacheStats).
	snapHits        atomic.Uint64
	snapMisses      atomic.Uint64
	snapPatched     atomic.Uint64
	snapRebuilt     atomic.Uint64
	snapInvalidated atomic.Uint64
}

// Name returns the registration name.
func (h *Handle) Name() string { return h.name }

// Query returns the maintained query. Immutable after registration.
func (h *Handle) Query() *cq.Query { return h.query }

// Strategy returns the backend serving this query (never StrategyAuto).
func (h *Handle) Strategy() Strategy { return h.strategy }

// Classification returns the taxonomy verdict computed at registration.
func (h *Handle) Classification() qtree.Classification { return h.class }

// Count returns |ϕ(D)| over the latest committed shared state.
func (h *Handle) Count() uint64 {
	h.ws.mu.RLock()
	defer h.ws.mu.RUnlock()
	return h.back.Count()
}

// CountAt returns |ϕ(D)| together with the committed version it holds
// at. While a snapshot of the current version is cached (Snapshot) it
// takes no lock: the count is that snapshot's, and the call keeps the
// cache demanded as a pin does. Otherwise it reads the count and the
// version under one read lock and caches nothing. Count followed by
// Version lets a commit land between the two, and a reply built from them
// pairs one version's count with the next one's number.
func (h *Handle) CountAt() (count, version uint64) {
	if s := h.cachedSnapshot(); s != nil {
		return s.Count(), s.version
	}
	h.ws.mu.RLock()
	defer h.ws.mu.RUnlock()
	return h.back.Count(), h.ws.version.Load()
}

// Answer reports whether ϕ(D) is nonempty.
func (h *Handle) Answer() bool {
	h.ws.mu.RLock()
	defer h.ws.mu.RUnlock()
	return h.back.Answer()
}

// Contains reports whether the tuple is in ϕ(D) at the latest committed
// state — the constant-time test of the paper's main theorem, next to
// update, count and enumerate. On core it costs one index lookup per free
// variable and enumerates nothing; on IVM one lookup in the materialised
// result. A tuple whose length is not the query's arity is not in the
// result; for a Boolean query Contains of the empty tuple is Answer.
func (h *Handle) Contains(tuple []Value) bool {
	if len(tuple) != h.query.Arity() {
		return false
	}
	h.ws.mu.RLock()
	defer h.ws.mu.RUnlock()
	return h.back.Contains(tuple)
}

// Enumerate calls yield for every result tuple of the latest committed
// state until yield returns false, holding the workspace read lock for
// the whole enumeration. For a Boolean query that holds, yield is called
// once with an empty tuple.
//
// The enumeration contract is uniform across all backends: the slice
// passed to yield is owned by the callee and only valid for the duration
// of the call — it may be reused for the next tuple, so callers that
// retain tuples must copy them (Tuples does). Mutating the yielded slice
// inside yield is harmless to the workspace's state but the mutation is
// not preserved either. The lock is not reentrant: yield must not call
// workspace or handle methods — a writer called from inside the
// enumeration self-deadlocks. Collect the tuples and react after
// Enumerate returns, or read from a Snapshot, which holds no lock.
func (h *Handle) Enumerate(yield func(tuple []Value) bool) {
	h.ws.mu.RLock()
	defer h.ws.mu.RUnlock()
	h.back.Enumerate(yield)
}

// Tuples returns the full result as freshly allocated tuples, in the
// backend's enumeration order.
func (h *Handle) Tuples() [][]Value {
	h.ws.mu.RLock()
	defer h.ws.mu.RUnlock()
	return collectTuples(h.back)
}

// Version returns the workspace version — identical across all handles
// of one workspace at any committed state.
func (h *Handle) Version() uint64 { return h.ws.Version() }

// Cardinality returns |D| of the shared store.
func (h *Handle) Cardinality() int { return h.ws.Cardinality() }

// MaintenanceNS returns the cumulative time the commit pipeline spent
// maintaining this query, and the number of commits that changed the
// store — every Commit that netted an update, whatever its size. The
// time includes the query's read side, which runs in the same timed step:
// advancing a cached snapshot and calling a CaptureDeltas hook; a query
// with neither pays nothing there. The per-commit delta of the first
// value is the per-query update latency. The timer is wall-clock: a
// handle's time includes whatever else took its processor meanwhile.
func (h *Handle) MaintenanceNS() (ns int64, batches int64) {
	h.ws.mu.RLock()
	defer h.ws.mu.RUnlock()
	return h.maintainNS, h.batches
}

func collectTuples(back queryBackend) [][]Value {
	var out [][]Value
	back.Enumerate(func(t []Value) bool {
		out = append(out, append([]Value(nil), t...))
		return true
	})
	return out
}

// Register parses the query text (cq.Parse syntax) and registers it
// under the given name with automatic routing — the one-call entry
// point the CLI uses.
func (w *Workspace) Register(name, text string) (*Handle, error) {
	q, err := cq.Parse(text)
	if err != nil {
		return nil, err
	}
	return w.RegisterQuery(name, q, Options{})
}

// RegisterQuery registers a query under a unique name with explicit
// options, routing by classification: core for q-hierarchical queries,
// IVM otherwise, unless opt.Force pins a strategy. The name is an
// identifier of the query syntax, like a relation name: it is the relation
// of the query's tuple lines on the wire (`+name(1,2)`). The new query's schema
// must be consistent with every already-registered query and with the
// relations already declared in the shared store. Registration against a
// populated store runs the strategy's preprocessing phase over the
// current contents, so late-registered queries are immediately up to
// date. Registration does not advance the version (the data did not
// change).
func (w *Workspace) RegisterQuery(name string, q *cq.Query, opt Options) (*Handle, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !stream.ValidIdent(name) {
		return nil, fmt.Errorf("dyncq: query name %q is not an identifier", name)
	}
	if _, ok := w.handles[name]; ok {
		return nil, fmt.Errorf("dyncq: query %q is already registered", name)
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("dyncq: %w", err)
	}
	for rel, ar := range q.Schema() {
		if want, ok := w.schema[rel]; ok && want != ar {
			return nil, fmt.Errorf("dyncq: %s has arity %d in query %q, but arity %d in already-registered query %q",
				rel, ar, name, want, w.owner[rel])
		}
		if r := w.store.Relation(rel); r != nil && r.Arity() != ar {
			return nil, fmt.Errorf("dyncq: %s has arity %d in query %q, but arity %d in the shared store", rel, ar, name, r.Arity())
		}
	}
	h := &Handle{ws: w, name: name, query: q, class: qtree.Classify(q)}
	strategy := opt.Force
	if strategy == StrategyAuto {
		if h.class.QHierarchical {
			strategy = StrategyCore
		} else {
			strategy = StrategyIVM
		}
	}
	switch strategy {
	case StrategyCore:
		e, err := core.New(q)
		if err != nil {
			return nil, fmt.Errorf("dyncq: %w", err)
		}
		h.back = &coreBackend{e: e, store: w.store}
	case StrategyIVM:
		m, err := ivm.New(q, w.store)
		if err != nil {
			return nil, fmt.Errorf("dyncq: %w", err)
		}
		h.back = &ivmBackend{m: m}
	default:
		return nil, fmt.Errorf("dyncq: invalid strategy %v", strategy)
	}
	h.strategy = strategy
	// Catch up with the store's current contents before going live.
	h.back.rebuild()
	for rel, ar := range q.Schema() {
		if _, ok := w.schema[rel]; !ok {
			w.schema[rel] = ar
			w.owner[rel] = name
			dyndb.Require(w.store, rel, ar)
		}
	}
	w.handles[name] = h
	w.order = append(w.order, h)
	return h, nil
}

// Unregister removes the named query from the workspace, reporting
// whether it was registered. The shared store keeps its data (including
// relations only that query mentioned); the union schema shrinks to the
// remaining queries.
func (w *Workspace) Unregister(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	h, ok := w.handles[name]
	if !ok {
		return false
	}
	h.capture = nil // no further delta events for a dropped query
	h.snap.Store(nil)
	h.snapInvalidated.Add(1) // a dropped query's cache must never serve a re-registered name
	delete(w.handles, name)
	for i, o := range w.order {
		if o == h {
			w.order = append(w.order[:i], w.order[i+1:]...)
			break
		}
	}
	w.schema = make(map[string]int)
	w.owner = make(map[string]string)
	ivmLeft := false
	for _, o := range w.order {
		for rel, ar := range o.query.Schema() {
			if _, ok := w.schema[rel]; !ok {
				w.schema[rel] = ar
				w.owner[rel] = o.name
			}
		}
		if o.strategy == StrategyIVM {
			ivmLeft = true
		}
	}
	for rel := range h.query.Schema() {
		dyndb.Require(w.store, rel, w.schema[rel]) // 0 lifts what only h required
	}
	if !ivmLeft {
		w.store.DropIndexes() // stop maintaining indexes nobody evaluates against
	}
	return true
}

// Handle returns the handle registered under name, or nil.
func (w *Workspace) Handle(name string) *Handle {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.handles[name]
}

// Handles returns the registered handles in registration order.
func (w *Workspace) Handles() []*Handle {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]*Handle(nil), w.order...)
}

// Schema returns the union relation→arity schema over all registered
// queries (a copy).
func (w *Workspace) Schema() map[string]int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make(map[string]int, len(w.schema))
	for rel, ar := range w.schema {
		out[rel] = ar
	}
	return out
}

// Version returns the number of committed state changes (every
// successful Load counts as one; a failed Load, like a rejected batch,
// changes nothing). All registered queries observe the same version at
// any committed state.
func (w *Workspace) Version() uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.version.Load()
}

// Cardinality returns |D| of the shared store.
func (w *Workspace) Cardinality() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.store.Cardinality()
}

// StoreMutations returns the shared store's lifetime mutation count
// (dyndb.Database.Mutations) — the number the "store applied once per
// batch, independent of the number of registered queries" guarantee is
// measured in.
func (w *Workspace) StoreMutations() uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.store.Mutations()
}

// checkArity validates one command against the union schema (errors
// name the owning query) and, for relations outside every query, the
// shared store's declaration. The commit path leaves the check to
// NetDelta and words a rejection with it afterwards (rejected).
func (w *Workspace) checkArity(rel string, arity int) error {
	if want, ok := w.schema[rel]; ok {
		if want != arity {
			return fmt.Errorf("dyncq: %s has arity %d in query %q, got tuple of length %d", rel, want, w.owner[rel], arity)
		}
		return nil
	}
	if r := w.store.Relation(rel); r != nil && r.Arity() != arity {
		return fmt.Errorf("dyncq: %s has arity %d in the shared store, got tuple of length %d", rel, r.Arity(), arity)
	}
	return nil
}

// rejected words the error of a batch NetDelta refused: the first
// command that breaks the union schema or a stored relation's arity, in
// batch order and as checkArity names it, else NetDelta's own error (an
// arity clash among the batch's commands on a new relation). Cold path.
func (w *Workspace) rejected(updates []Update, err error) error {
	for _, u := range updates {
		if aerr := w.checkArity(u.Rel, len(u.Tuple)); aerr != nil {
			return aerr
		}
	}
	return fmt.Errorf("dyncq: %w", err)
}

// Commit is the workspace's one write door. It executes the updates as
// one atomic commit across the shared store and every registered query:
// the batch is coalesced, validated as a whole (a bad command rejects the
// batch with nothing applied), reduced to the net delta that actually
// changes the store, applied to the store ONCE, and fanned out to every
// query's maintenance structure. Readers observe either the state before
// the whole batch or after it. A single update is a batch of one.
//
// Commit returns the number of net commands that changed the database and
// the workspace version the commit produced, read before the write lock is
// released — with several writers, Version() asked afterwards may already
// name somebody else's commit. A commit that changes nothing leaves the
// version where it was and returns it.
//
// Commit reads the batch's tuples only until it returns: the store, the
// engines, delta events and snapshots keep copies of what they keep, so
// the caller may overwrite or reuse the tuples' backing arrays as soon as
// Commit returns — a server session parses every batch into one reused
// value array on that guarantee.
//
//dyncq:hot
func (w *Workspace) Commit(updates []Update) (applied int, version uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	applied, err = w.commitLocked(updates)
	return applied, w.version.Load(), err
}

// ApplyBatch is Commit without the version.
//
// Deprecated: use Commit. ApplyBatch stays only because the benchmark's
// ladder (benchmark/ladder.go) calls it; it goes once that caller moves to
// Commit (ROADMAP item "The store's write path: no dead argument, one
// probe").
func (w *Workspace) ApplyBatch(updates []Update) (int, error) {
	applied, _, err := w.Commit(updates)
	return applied, err
}

// commitLocked is the commit pipeline: Commit runs it, and it is the
// only place that coalesces, writes the store, fans the delta out and
// publishes each query's result delta to its read side. It allocates
// nothing once warm. The caller holds w.mu.Lock.
//
//dyncq:hot
func (w *Workspace) commitLocked(updates []Update) (int, error) {
	// One validation pass, inside NetDelta, over every coalesced command
	// by relation id: the union schema (mirrored into the store by
	// Require), stored relations' arities, and intra-batch consistency of
	// newly declared relations. A failure rejects the batch atomically;
	// rejected then names the owning query as the name-keyed check would.
	survivors, err := w.store.NetDelta(updates)
	if err != nil {
		return 0, w.rejected(updates, err)
	}
	if len(survivors) == 0 {
		return 0, nil
	}

	// Store phase. If any backend needs the relation-phased schedule (an
	// IVM query whose crossover chose delta joins: deletion deltas
	// evaluate on the pre-state, insertion deltas on the post-state), each
	// relation's mutation is bracketed by the pre/post hooks; otherwise
	// the whole net delta goes to the store in one ApplyNetDelta. Either
	// way the store (and the indexes it maintains) is written exactly once
	// per net command, independent of the number of queries.
	phased := false
	for _, h := range w.order {
		if h.back.begin(len(survivors), h.emits()) {
			phased = true
		}
	}
	if phased {
		w.runHookedStorePhase(survivors)
	} else {
		w.store.ApplyNetDelta(survivors, 0)
	}

	// Fan-out phase: every backend sees the full delta with the store
	// current (core runs its per-atom procedures here; IVM closes its
	// batch, rebuilding if the crossover chose to), and its result delta,
	// stamped with the version the commit makes, goes straight on to the
	// handle's read side. The version moves once, after every handle has
	// finished.
	version := w.version.Load() + 1
	t := time.Since(clockBase)
	for _, h := range w.order {
		added, removed := h.back.finish(survivors)
		if h.emits() {
			h.publish(DeltaEvent{Query: h.name, Version: version, Added: added, Removed: removed}, true)
		}
		t = lap(&h.maintainNS, t)
		h.batches++
	}
	w.version.Store(version)
	return len(survivors), nil
}

// relDelta is one relation's slice of a commit's net delta, for the
// relation-phased store schedule.
type relDelta struct {
	id        int
	rel       string
	dels, ins [][]Value
	cmds      []Update
}

// runHookedStorePhase is the relation-phased store schedule: the
// commit's net delta grouped per relation in first-appearance order, each
// relation's deletions and insertions bracketed by the pre/post hooks of
// every handle, timed into each handle's maintenance time — the exact
// schedule ivm.Maintainer documents, so every IVM backend's maintained
// multiplicities are identical to a single-update replay of the same
// stream. Only IVM backends do work in the hooks; the others' hooks are
// no-ops.
//
//dyncq:hot
func (w *Workspace) runHookedStorePhase(survivors []Update) {
	rels := w.rels[:0]
	for _, u := range survivors {
		id, at := dyndb.IDOf(u), len(rels)
		for i := range rels {
			if rels[i].id == id {
				at = i
				break
			}
		}
		if at == len(rels) {
			if at < cap(rels) {
				rels = rels[:at+1] // a slot an earlier commit used
			} else {
				rels = append(rels, relDelta{}) //dyncq:allow hotalloc grows with the number of relations, reused after
			}
			d := &rels[at]
			d.id, d.rel, d.dels, d.ins, d.cmds = id, u.Rel, d.dels[:0], d.ins[:0], d.cmds[:0]
		}
		d := &rels[at]
		if u.Op == dyndb.OpInsert {
			d.ins = append(d.ins, u.Tuple) //dyncq:allow hotalloc grows to the largest commit's share, reused after
		} else {
			d.dels = append(d.dels, u.Tuple) //dyncq:allow hotalloc grows to the largest commit's share, reused after
		}
		d.cmds = append(d.cmds, u) //dyncq:allow hotalloc grows to the largest commit's share, reused after
	}
	w.rels = rels
	for i := range rels {
		d := &rels[i]
		if len(d.dels) > 0 {
			// Pre-state hooks: the store has not applied this relation's
			// delta yet.
			t := time.Since(clockBase)
			for _, h := range w.order {
				h.back.preDelete(d.rel, d.dels)
				t = lap(&h.maintainNS, t)
			}
		}
		// One relation's slice of a validated net delta is itself a net
		// delta against the current state (relations are disjoint, earlier
		// phases touched other relations).
		w.store.ApplyNetDelta(d.cmds, 0)
		if len(d.ins) > 0 {
			// Post-state hooks: this relation's delta is fully applied.
			t := time.Since(clockBase)
			for _, h := range w.order {
				h.back.postInsert(d.rel, d.ins)
				t = lap(&h.maintainNS, t)
			}
		}
	}
	for i := range rels {
		d := &rels[i]
		clear(d.dels)
		clear(d.ins)
		clear(d.cmds)
		if cap(d.cmds) > keepGrouped {
			d.dels, d.ins, d.cmds = nil, nil, nil
		}
	}
}

// keepGrouped bounds, in commands, the per-relation grouping slices a
// commit leaves for the next one: commit-sized batches reuse them, while a
// bulk batch's are dropped rather than kept alive between commits.
const keepGrouped = 1024

// lap reads the clock, charges the time since the previous reading t to
// *ns, and returns the new reading.
//
//dyncq:hot
func lap(ns *int64, t time.Duration) time.Duration {
	now := time.Since(clockBase)
	*ns += int64(now - t)
	return now
}

// clockBase carries a monotonic clock reading, so time.Since(clockBase)
// reads the monotonic clock alone: about half the cost of time.Now, which
// reads the wall clock too.
var clockBase = time.Now()

// Load performs the preprocessing phase for an initial database across
// the whole workspace through each backend's bulk path (core replays its
// update procedure once per stored tuple, ivm rebuilds its materialised
// result with a single full evaluation), with reset-then-load semantics
// on every backend: after Load the shared store holds exactly db and
// every registered query represents exactly its result over db,
// discarding all prior state; the version advances once, and all queries
// observe it. Load validates db against the union schema before it
// touches anything, so a failed Load (an arity clash between db and any
// registered query) is rejected atomically, like a batch: the store,
// every result, the version, cached snapshots and capture streams stay
// exactly as they were. To add a database's tuples on top of the current
// state, feed db.Updates() through Commit instead.
func (w *Workspace) Load(db *Database) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.loadLocked(db)
}

func (w *Workspace) loadLocked(db *dyndb.Database) error {
	for _, rel := range db.Relations() {
		if want, ok := w.schema[rel]; ok && want != db.Relation(rel).Arity() {
			return fmt.Errorf("dyncq: %s has arity %d in query %q, %d in the loaded database",
				rel, want, w.owner[rel], db.Relation(rel).Arity())
		}
	}
	// No backend tracks a reset incrementally: a captured query's delta
	// across the load is a one-shot diff of its result before and after,
	// linear like the load itself and gone once the event is built. A
	// handle with only a cached snapshot takes no image: its snapshot is
	// re-materialised after the load, linear just the same.
	before := make([]*tuplekey.Table[bool], len(w.order))
	for i, h := range w.order {
		if h.capture != nil {
			before[i] = resultImage(h.back, h.query.Arity())
		}
	}
	w.store.Clear()
	if err := w.store.CopyFrom(db); err != nil {
		// db passed the union schema the store requires, and the store
		// was just cleared: only a bug gets here.
		panic(fmt.Sprintf("dyncq: validated database failed to load: %v", err))
	}
	// Like a commit, the load rebuilds the backends in registration order,
	// publishes each handle's delta, stamped with the version it makes, and
	// moves the version once.
	version := w.version.Load() + 1
	for i, h := range w.order {
		h.back.rebuild()
		if !h.emits() {
			continue
		}
		ev := DeltaEvent{Query: h.name, Version: version}
		if before[i] != nil {
			ev.Added, ev.Removed = diffImage(before[i], h.back)
		}
		h.publish(ev, before[i] != nil)
	}
	w.version.Store(version)
	return nil
}

// ---- strategy adapters ----

// coreBackend adapts a core engine: the per-atom update procedures are
// order-independent of the store mutation, so everything runs in finish,
// which is also where the engine emits the commit's result delta. The engine holds no store;
// rebuild hands it the shared one to scan.
type coreBackend struct {
	e     *core.Engine
	store *dyndb.Database
	emit  bool // the open commit's result delta is wanted
}

func (b *coreBackend) Count() uint64                      { return b.e.Count() }
func (b *coreBackend) Answer() bool                       { return b.e.Answer() }
func (b *coreBackend) Enumerate(yield func([]Value) bool) { b.e.Enumerate(yield) }
func (b *coreBackend) Contains(tuple []Value) bool        { return b.e.Contains(tuple) }
func (b *coreBackend) begin(_ int, emit bool) bool        { b.emit = emit; return false }
func (b *coreBackend) preDelete(string, [][]Value)        {}
func (b *coreBackend) postInsert(string, [][]Value)       {}
func (b *coreBackend) finish(survivors []Update) (added, removed [][]Value) {
	return b.e.ApplyDelta(survivors, b.emit)
}
func (b *coreBackend) rebuild() { b.e.Rebuild(b.store) }

// ivmBackend adapts an IVM maintainer: deltas are propagated through the
// per-relation pre/post hooks, and the maintainer reports the commit's
// result delta from the head tuples those delta joins touched.
type ivmBackend struct {
	m *ivm.Maintainer
}

func (b *ivmBackend) Count() uint64                           { return b.m.Count() }
func (b *ivmBackend) Answer() bool                            { return b.m.Answer() }
func (b *ivmBackend) Enumerate(yield func([]Value) bool)      { b.m.Enumerate(yield) }
func (b *ivmBackend) Contains(tuple []Value) bool             { return b.m.Has(tuple) }
func (b *ivmBackend) begin(n int, emit bool) bool             { return b.m.BeginBatch(n, emit) }
func (b *ivmBackend) preDelete(rel string, tuples [][]Value)  { b.m.PreDelete(rel, tuples) }
func (b *ivmBackend) postInsert(rel string, tuples [][]Value) { b.m.PostInsert(rel, tuples) }
func (b *ivmBackend) finish([]Update) (added, removed [][]Value) {
	return b.m.FinishBatch()
}
func (b *ivmBackend) rebuild() { b.m.Rebuild() }
