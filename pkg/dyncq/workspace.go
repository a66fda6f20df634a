package dyncq

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dyncq/internal/core"
	"dyncq/internal/cq"
	"dyncq/internal/dict"
	"dyncq/internal/dyndb"
	"dyncq/internal/ivm"
	"dyncq/internal/qtree"
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
// The pipeline, per batch: coalesce once, validate once (against the
// union schema of all registered queries and the store, so a bad batch
// is rejected atomically), compute the net delta against the shared
// store once (dyndb.NetDelta), apply it to the store once — the store
// mutation count is independent of how many queries are registered —
// and fan the same delta out to every query's maintenance structure
// (core / ivm, routed per query by classification). IVM
// backends need the store in a specific state relative to each
// relation's mutation (deletion deltas evaluate on the pre-state,
// insertion deltas on the post-state), so the fan-out interleaves
// per-relation hooks with the store mutation; core backends receive the
// whole delta after the store is current, in delta order, reusing the
// sharded parallel path when the workspace was built with workers.
//
// Concurrency: a Workspace is safe for concurrent use — writers
// serialise behind a write lock and commit atomically, readers (every
// Handle method and View) share a read lock and always observe the state
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

	// The write side is one sequence per commit; a single update is a net
	// delta of one. begin opens a nonempty net delta of n commands, says
	// whether the commit's result delta is wanted, and reports whether the
	// backend needs the relation-phased store schedule for it: preDelete
	// and postInsert then bracket each relation's store mutation (IVM's
	// deletion deltas evaluate on the pre-state, its insertion deltas on
	// the post-state). When no registered backend asks, the workspace
	// applies the whole net delta to the store shard-parallel and skips
	// both hooks. finish closes the commit with the full delta once the
	// store is current and returns what it did to the query's result —
	// disjoint, each side in lexicographic order, owned by the caller —
	// or nil, nil if begin did not ask.
	begin(n int, emit bool) (phased bool)
	preDelete(rel string, tuples [][]Value)
	postInsert(rel string, tuples [][]Value)
	finish(survivors []Update, workers int) (added, removed [][]Value)

	// rebuild brings the structure up to date with the shared store's
	// current contents (Load, late registration); clear leaves it
	// representing the empty database.
	rebuild() error
	clear()
}

// WorkspaceOptions configures NewWorkspace.
type WorkspaceOptions struct {
	// Workers is the number of goroutines each batch's maintenance work
	// is spread over (<= 1 keeps every path sequential). It controls
	// three independent axes of one batch: the shard-parallel store
	// phase (when no IVM backend needs the relation-phased schedule),
	// the per-handle fan-out of independent queries' maintenance, and
	// the shard-disjoint delta application inside each core engine. Core
	// engines registered without an explicit Options.Shards are built
	// with 4×Workers shards, so the dynamic bucket claim keeps all workers
	// busy even when root values hash unevenly.
	Workers int
	// StoreShards is the number of hash shards the shared store's
	// relation maps and adom counts are split into. 0 derives it from
	// Workers (4×Workers when Workers > 1, else 1 — the paper's exact
	// single-map layout). The shard count changes no observable content.
	StoreShards int
}

// Workspace is the shared front door: one dynamic database, one update
// pipeline, many registered live queries. Build one with NewWorkspace;
// the zero value is not ready. Safe for concurrent use.
type Workspace struct {
	mu       sync.RWMutex
	store    *dyndb.Database
	dictOnce sync.Once
	d        *dict.Dict     // lazily created by Dict/InsertS/DeleteS; guarded by dictOnce, not mu
	schema   map[string]int // union schema over all registered queries
	owner    map[string]string
	handles  map[string]*Handle
	order    []*Handle // registration order
	workers  int

	// one and oneTuple are the single-update path's net delta of one, so
	// Apply drives the same backend sequence as a batch without
	// allocating. Guarded by the write lock; backends do not retain them.
	one      [1]Update
	oneTuple [1][]Value

	// version counts committed state changes. It is atomic so the
	// cached-snapshot fast path (Handle.CachedSnapshot) can validate a
	// pinned version without the read lock; it only ever advances with
	// exclusive access to the workspace.
	version atomic.Uint64
}

// NewWorkspace returns an empty workspace with no registered queries.
// Updates applied before any registration only populate the shared
// store; queries registered later are brought up to date against it.
func NewWorkspace(opt WorkspaceOptions) *Workspace {
	shards := opt.StoreShards
	if shards == 0 && opt.Workers > 1 {
		shards = 4 * opt.Workers
	}
	if shards < 1 {
		shards = 1
	}
	return &Workspace{
		store:   dyndb.NewSharded(shards),
		schema:  make(map[string]int),
		owner:   make(map[string]string),
		handles: make(map[string]*Handle),
		workers: opt.Workers,
	}
}

// Handle is the read surface of one registered live query. All read
// methods are safe for concurrent use and observe the workspace's
// latest committed state; use Workspace.View for multi-call snapshot
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
	// shards is the core engine's shard count, 0 for the other strategies
	// (the introspection behind Parallelism).
	shards int

	// maintainNS accumulates the time the batch pipeline spent
	// maintaining this query (delta hooks + finish), and batches
	// the number of nonempty batches it participated in — the per-query
	// split of the shared pipeline's cost (MaintenanceNS). The
	// single-update fast path is deliberately untimed.
	maintainNS int64
	batches    int64

	// capture is the active delta export (CaptureDeltas), nil while no
	// subscriber wants this query's per-commit deltas.
	capture *deltaCapture

	// The open commit's result delta, between the backend's finish and
	// afterCommit, which hands it to the capture hook and the snapshot
	// advance and clears it. emitting says whether the backend was asked
	// for one at all (begin decides, or Load): an empty delta and no delta
	// both come as nil slices. Guarded by the write lock.
	emitting       bool
	added, removed [][]Value

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
// at, both read under one read lock: Count followed by Version lets a
// commit land between the two, and a reply built from them pairs one
// version's count with the next one's number.
func (h *Handle) CountAt() (count, version uint64) {
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

// ActiveDomainSize returns n = |adom(D)| of the shared store.
func (h *Handle) ActiveDomainSize() int { return h.ws.ActiveDomainSize() }

// MaintenanceNS returns the cumulative time the batch pipeline spent
// maintaining this query, and the number of nonempty batches it
// participated in. The per-batch delta of the first value is the
// per-query update latency. The timer is wall-clock: with Workers > 1
// the per-handle fan-out runs handles concurrently, so each handle's
// time includes scheduler contention from the others and the sum over
// handles can exceed the batch's duration — compare per-handle timings
// across runs only at the same worker count.
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
// IVM otherwise, unless opt.Force pins a strategy. The new query's schema
// must be consistent with every already-registered query and with the
// relations already declared in the shared store. Registration against a
// populated store runs the strategy's preprocessing phase over the
// current contents, so late-registered queries are immediately up to
// date. Registration does not advance the version (the data did not
// change).
func (w *Workspace) RegisterQuery(name string, q *cq.Query, opt Options) (*Handle, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if name == "" {
		return nil, fmt.Errorf("dyncq: empty query name")
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
		shards := opt.Shards
		if shards == 0 && w.workers > 1 {
			shards = 4 * w.workers
		}
		if shards < 1 {
			shards = 1
		}
		e, err := core.New(q, shards)
		if err != nil {
			return nil, fmt.Errorf("dyncq: %w", err)
		}
		h.back = &coreBackend{e: e, store: w.store}
		h.shards = e.Shards()
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
	if err := h.back.rebuild(); err != nil {
		return nil, fmt.Errorf("dyncq: %w", err)
	}
	for rel, ar := range q.Schema() {
		if _, ok := w.schema[rel]; !ok {
			w.schema[rel] = ar
			w.owner[rel] = name
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

// Workers returns the configured worker count.
func (w *Workspace) Workers() int { return w.workers }

// Parallelism is the effective parallel configuration of a workspace —
// what actually engages per batch, not what was requested. CLI and
// bench reporting read it instead of re-deriving the shard heuristics.
type Parallelism struct {
	// Workers is the per-batch worker count (<= 1: every path
	// sequential).
	Workers int
	// StoreShards is the shared store's hash shard count; > 1 means the
	// store phase applies shard-parallel when no IVM delta-join batch
	// forces the relation-phased schedule.
	StoreShards int
	// QueryShards maps each registered query to its engine's shard
	// count: > 1 means its delta application runs shard-parallel; 0
	// means sharding does not apply to its backend (ivm).
	QueryShards map[string]int
}

// Parallelism returns the workspace's effective worker and shard
// counts.
func (w *Workspace) Parallelism() Parallelism {
	w.mu.RLock()
	defer w.mu.RUnlock()
	p := Parallelism{
		Workers:     w.workers,
		StoreShards: w.store.Shards(),
		QueryShards: make(map[string]int, len(w.order)),
	}
	for _, h := range w.order {
		p.QueryShards[h.name] = h.shards
	}
	return p
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

// Version returns the number of committed state changes (every Load
// counts as one — even a failed Load discards the prior state). All
// registered queries observe the same version at any committed state.
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

// ActiveDomainSize returns n = |adom(D)| of the shared store.
func (w *Workspace) ActiveDomainSize() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.store.ActiveDomainSize()
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

// Dict returns the workspace's dictionary, creating it on first use.
// The dictionary backs the string-accepting helpers (InsertS/DeleteS)
// and the CLI's -strings stream mode. Dict itself never takes the
// workspace lock, so it is callable from inside Enumerate/View
// callbacks (e.g. to Decode tuple values while enumerating). The
// returned dictionary is NOT independently goroutine-safe: do not call
// Encode on it concurrently with workspace writers — use the helpers,
// which encode under the workspace lock.
func (w *Workspace) Dict() *dict.Dict {
	w.dictOnce.Do(func() { w.d = dict.New() })
	return w.d
}

// InsertS inserts a tuple of external string constants, encoding them
// through the workspace dictionary (Workspace.Dict). The arity check
// runs before any encoding, so a rejected insert assigns no codes.
func (w *Workspace) InsertS(rel string, names ...string) (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.checkArity(rel, len(names)); err != nil {
		return false, err
	}
	d := w.Dict() //dyncq:allow lockorder Dict is lock-free by construction (sync.Once, no w.mu), the PR 6 deadlock fix
	tuple := make([]Value, len(names))
	for i, n := range names {
		tuple[i] = d.Encode(n)
	}
	return w.applyLocked(dyndb.Insert(rel, tuple...))
}

// DeleteS deletes a tuple of external string constants. A name the
// dictionary has never seen cannot occur in any stored tuple, so such a
// deletion is a no-op (and assigns no code) — but an arity mismatch
// still errors, exactly as on every other write path.
func (w *Workspace) DeleteS(rel string, names ...string) (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.checkArity(rel, len(names)); err != nil {
		return false, err
	}
	d := w.Dict() //dyncq:allow lockorder Dict is lock-free by construction (sync.Once, no w.mu), the PR 6 deadlock fix
	tuple := make([]Value, len(names))
	for i, n := range names {
		c, ok := d.Lookup(n)
		if !ok {
			return false, nil
		}
		tuple[i] = c
	}
	return w.applyLocked(dyndb.Delete(rel, tuple...))
}

// Insert applies "insert R(a1,…,ar)" to the shared store and every
// registered query, reporting whether the database changed.
func (w *Workspace) Insert(rel string, tuple ...Value) (bool, error) {
	return w.Apply(dyndb.Insert(rel, tuple...))
}

// Delete applies "delete R(a1,…,ar)", reporting whether the database
// changed.
func (w *Workspace) Delete(rel string, tuple ...Value) (bool, error) {
	return w.Apply(dyndb.Delete(rel, tuple...))
}

// Apply executes one update command atomically across the shared store
// and every registered query.
func (w *Workspace) Apply(u Update) (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.applyLocked(u)
}

// ApplyAll executes a sequence of updates one at a time, stopping at
// the first error. For bulk work prefer ApplyBatch.
func (w *Workspace) ApplyAll(updates []Update) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, u := range updates {
		if _, err := w.applyLocked(u); err != nil {
			return err
		}
	}
	return nil
}

// checkArity validates one command against the union schema (errors
// name the owning query) and, for relations outside every query, the
// shared store's declaration.
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

// applyLocked is the single-update fast path: one arity check, one
// store mutation, and the backends' commit sequence over a net delta of
// one — no coalescing, no batch bookkeeping, no allocation. The caller
// holds w.mu.Lock.
func (w *Workspace) applyLocked(u Update) (bool, error) {
	if err := w.checkArity(u.Rel, len(u.Tuple)); err != nil {
		return false, err
	}
	insert := u.Op == dyndb.OpInsert
	if insert == w.store.Has(u.Rel, u.Tuple...) {
		return false, nil
	}
	w.one[0], w.oneTuple[0] = u, u.Tuple
	phased := false
	for _, h := range w.order {
		if h.begin(1) {
			phased = true
		}
	}
	if phased && !insert {
		for _, h := range w.order {
			h.back.preDelete(u.Rel, w.oneTuple[:])
		}
	}
	if _, err := w.store.Apply(u); err != nil {
		panic("dyncq: validated update failed to apply: " + err.Error())
	}
	if phased && insert {
		for _, h := range w.order {
			h.back.postInsert(u.Rel, w.oneTuple[:])
		}
	}
	for _, h := range w.order {
		h.added, h.removed = h.back.finish(w.one[:], 1)
	}
	w.version.Add(1)
	w.afterCommitLocked()
	return true, nil
}

// Commit executes the updates as one atomic commit, exactly as ApplyBatch
// does, and also returns the workspace version the commit produced, read
// before the write lock is released — with several writers, Version()
// asked afterwards may already name somebody else's commit. A commit that
// changes nothing leaves the version where it was and returns it. One
// update takes the single-update fast path.
//
//dyncq:hot
func (w *Workspace) Commit(updates []Update) (applied int, version uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(updates) == 1 {
		changed, err := w.applyLocked(updates[0])
		if changed {
			applied = 1
		}
		return applied, w.version.Load(), err
	}
	applied, err = w.applyBatchLocked(updates)
	return applied, w.version.Load(), err
}

// ApplyBatch executes a batch atomically across the shared store and
// every registered query: the batch is coalesced, validated as a whole
// (a bad command rejects the batch with nothing applied), reduced to
// the net delta that actually changes the store, applied to the store
// ONCE, and fanned out to every query's maintenance structure. Readers
// observe either the state before the whole batch or after it. Returns
// the number of net commands that changed the database.
func (w *Workspace) ApplyBatch(updates []Update) (int, error) {
	applied, _, err := w.Commit(updates)
	return applied, err
}

// applyBatchLocked is the batch pipeline behind Commit. The caller holds
// w.mu.Lock.
//
//dyncq:hot
func (w *Workspace) applyBatchLocked(updates []Update) (int, error) {
	// Union-schema validation first: errors name the owning query.
	// Store-level arity validation (relations outside every query, and
	// intra-batch consistency of newly declared relations) happens
	// inside NetDelta. Either failure rejects the batch atomically.
	for _, u := range updates {
		if err := w.checkArity(u.Rel, len(u.Tuple)); err != nil {
			return 0, err
		}
	}
	survivors, err := w.store.NetDelta(updates)
	if err != nil {
		return 0, fmt.Errorf("dyncq: %w", err) //dyncq:allow hotalloc cold error path, never taken by validated batches
	}
	if len(survivors) == 0 {
		return 0, nil
	}

	// Store phase. Two schedules, chosen per batch:
	//
	//   - If any backend needs the relation-phased schedule (an IVM query
	//     whose crossover chose delta joins: deletion deltas evaluate on
	//     the pre-state, insertion deltas on the post-state), each
	//     relation's mutation is bracketed by the pre/post hooks,
	//     sequentially.
	//   - Otherwise the whole net delta goes to the store through the
	//     shard-disjoint parallel path (dyndb.ApplyNetDelta) — the store
	//     phase is no longer serialised behind a single map.
	//
	// Either way the store (and the indexes it maintains) is written
	// exactly once per net command, independent of the number of queries.
	phased := false
	for _, h := range w.order {
		if h.begin(len(survivors)) {
			phased = true
		}
	}
	perNS := make([]int64, len(w.order))
	if phased {
		w.runHookedStorePhase(survivors, perNS)
	} else {
		w.store.ApplyNetDelta(survivors, w.workers)
	}

	// Fan-out phase: every backend sees the full delta with the store
	// current (core runs its per-atom procedures here, parallel when the
	// workspace has workers; IVM closes its batch, rebuilding if the
	// crossover chose to). Every handle's batch close-out — core AND ivm
	// — fans out across one worker pool: per-handle state is private, and
	// the one shared structure (the store's indexes) is safe for
	// concurrent evaluators over a quiescent store. Each
	// handle's work is self-contained, so the result is byte-identical
	// at any worker count.
	w.finishFanOut(survivors, perNS)
	for i, h := range w.order {
		h.maintainNS += perNS[i]
		h.batches++
	}
	w.version.Add(1)
	w.afterCommitLocked()
	return len(survivors), nil
}

// ApplyBatched splits the updates into chunks of batchSize and commits
// each chunk atomically (readers may observe the state between chunks —
// each chunk is one version), returning the total number of net commands
// that changed the database and stopping at the first error. batchSize
// <= 0 applies one batch.
func (w *Workspace) ApplyBatched(updates []Update, batchSize int) (int, error) {
	if batchSize <= 0 {
		return w.ApplyBatch(updates)
	}
	applied := 0
	for from := 0; from < len(updates); from += batchSize {
		to := from + batchSize
		if to > len(updates) {
			to = len(updates)
		}
		n, err := w.ApplyBatch(updates[from:to])
		applied += n
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}

// runHookedStorePhase is the relation-phased store schedule: the delta
// grouped per relation in first-appearance order, each relation's
// deletions and insertions bracketed by the pre/post hooks — the exact
// schedule ivm.Maintainer documents, so every IVM backend's maintained
// multiplicities are identical to a single-update replay of the same
// stream.
//
// Two axes of the schedule are parallel while its ordering contract is
// preserved: the hook phases fan each relation's pre/post hooks out
// across the handles on a worker pool (per-handle IVM state is private
// and the store's indexes are safe for concurrent evaluators over a
// quiescent store), and each relation's store mutation goes through the
// shard-disjoint parallel path (dyndb.ApplyNetDelta) instead of
// per-tuple sequential writes — a delta-join batch no longer forces the
// whole store phase sequential. Only IVM backends do work in the hooks,
// so only they pay the per-hook clock reads; the other strategies'
// hooks are no-ops and contribute zero to their timers by construction.
func (w *Workspace) runHookedStorePhase(survivors []Update, perNS []int64) {
	type relDelta struct {
		dels, ins [][]Value
		cmds      []Update // the relation's slice of the net delta
	}
	deltas := make(map[string]*relDelta)
	var relOrder []string
	for _, u := range survivors {
		d := deltas[u.Rel]
		if d == nil {
			d = &relDelta{}
			deltas[u.Rel] = d
			relOrder = append(relOrder, u.Rel)
		}
		if u.Op == dyndb.OpInsert {
			d.ins = append(d.ins, u.Tuple)
		} else {
			d.dels = append(d.dels, u.Tuple)
		}
		d.cmds = append(d.cmds, u)
	}
	all := w.allHandles()
	hook := func(i int, fn func(back queryBackend)) {
		h := w.order[i]
		if h.strategy != StrategyIVM {
			fn(h.back)
			return
		}
		t0 := time.Now()
		fn(h.back)
		perNS[i] += time.Since(t0).Nanoseconds()
	}
	for _, rel := range relOrder {
		d := deltas[rel]
		if len(d.dels) > 0 {
			// Pre-state hooks: the store has not applied this relation's
			// delta yet.
			runPool(all, w.workers, func(i int) {
				hook(i, func(back queryBackend) { back.preDelete(rel, d.dels) })
			})
		}
		// One relation's slice of a validated net delta is itself a net
		// delta against the current state (relations are disjoint, earlier
		// phases touched other relations), so the shard-parallel store
		// path applies.
		w.store.ApplyNetDelta(d.cmds, w.workers)
		if len(d.ins) > 0 {
			// Post-state hooks: this relation's delta is fully applied.
			runPool(all, w.workers, func(i int) {
				hook(i, func(back queryBackend) { back.postInsert(rel, d.ins) })
			})
		}
	}
}

// allHandles returns the indices of every registered handle — the
// fan-out pools run all of them concurrently: core backends touch only
// private structures, and IVM backends share only the store's indexes,
// which are safe for concurrent evaluators while the store is quiescent.
func (w *Workspace) allHandles() []int {
	out := make([]int, len(w.order))
	for i := range out {
		out[i] = i
	}
	return out
}

// runPool runs fn(i) for every i in items on up to workers goroutines
// claimed off a shared counter (sequentially when workers <= 1 or there
// is at most one item). A panic inside fn is re-raised on the caller's
// stack after the pool drains, matching the sequential path's failure
// semantics (if several workers panic, the lowest worker index wins).
func runPool(items []int, workers int, fn func(i int)) {
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for _, i := range items {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make([]any, workers)
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func(k int) {
			defer wg.Done()
			defer func() { panics[k] = recover() }()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(items) {
					return
				}
				fn(items[j])
			}
		}(k)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// finishFanOut runs every backend's finish — core and ivm alike — over
// up to w.workers goroutines; there is no sequential IVM tail. The worker
// budget is divided across the concurrently running handles (each core
// backend's ApplyDelta spawns its own shard workers), so a batch never
// oversubscribes Workers² goroutines. Per-handle
// timings land in perNS, the result deltas with their captures.
func (w *Workspace) finishFanOut(survivors []Update, perNS []int64) {
	all := w.allHandles()
	concurrency := w.workers
	if concurrency > len(all) {
		concurrency = len(all)
	}
	inner := w.workers
	if concurrency > 1 {
		inner = w.workers / concurrency
		if inner < 1 {
			inner = 1
		}
	}
	runPool(all, w.workers, func(i int) {
		h := w.order[i]
		t0 := time.Now()
		h.added, h.removed = h.back.finish(survivors, inner)
		perNS[i] += time.Since(t0).Nanoseconds()
	})
}

// Load performs the preprocessing phase for an initial database across
// the whole workspace through each backend's bulk path (core builds its
// counters and fit lists in one linear pass, ivm rebuilds its
// materialised result with a single full evaluation), with
// reset-then-load semantics on every backend: after Load the shared
// store holds exactly db and every registered query represents exactly
// its result over db, discarding all prior state. A
// failed Load (an arity clash between db and any registered query)
// leaves the workspace representing the EMPTY database. Either way the
// version advances once, and all queries observe it. To add a
// database's tuples on top of the current state, feed db.Updates()
// through ApplyBatch instead.
func (w *Workspace) Load(db *Database) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.loadLocked(db)
}

func (w *Workspace) loadLocked(db *dyndb.Database) error {
	w.version.Add(1)
	// No backend tracks a reset incrementally: a captured query's delta
	// across the load is a one-shot diff of its result before and after,
	// linear like the load itself and gone once the event is built. A
	// handle with only a cached snapshot takes no image: its snapshot is
	// re-materialised after the load, linear just the same.
	before := make([]*tuplekey.Table[bool], len(w.order))
	for i, h := range w.order {
		h.emitting, h.added, h.removed = h.capture != nil && h.query.Arity() > 0, nil, nil
		if h.emitting {
			before[i] = resultImage(h.back, h.query.Arity())
		}
	}
	commit := func() {
		for i, img := range before {
			if img != nil {
				w.order[i].added, w.order[i].removed = diffImage(img, w.order[i].back)
			}
		}
		w.afterCommitLocked()
	}
	fail := func(err error) error {
		w.store.Clear()
		for _, h := range w.order {
			h.back.clear()
		}
		// The version advanced and the state changed (to empty):
		// subscribers get their per-version event either way.
		commit()
		return err
	}
	for _, rel := range db.Relations() {
		if want, ok := w.schema[rel]; ok && want != db.Relation(rel).Arity() {
			return fail(fmt.Errorf("dyncq: %s has arity %d in query %q, %d in the loaded database",
				rel, want, w.owner[rel], db.Relation(rel).Arity()))
		}
	}
	w.store.Clear()
	if err := w.store.CopyFrom(db); err != nil {
		return fail(err) // unreachable: the store was just cleared
	}
	if err := w.rebuildFanOut(fail); err != nil {
		return err // fail() already delivered the capture events
	}
	commit()
	return nil
}

// rebuildFanOut brings every backend up to date with the store's
// current contents, all of them concurrently on up to w.workers
// goroutines: core preprocessing only reads the shared store, and IVM
// backends evaluate through the store's indexes, whose lazy builds are
// internally locked. The first error in handle order wins and fails the
// whole load atomically.
func (w *Workspace) rebuildFanOut(fail func(error) error) error {
	errs := make([]error, len(w.order))
	runPool(w.allHandles(), w.workers, func(i int) {
		errs[i] = w.order[i].back.rebuild()
	})
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}
	return nil
}

// View runs f against an MVCC snapshot of the whole workspace: every
// read f performs — across ALL registered queries — sees the same
// committed state, pinned at one version. The snapshot is materialised
// copy-on-pin under a brief read lock and the lock is RELEASED before f
// runs, so f may take arbitrarily long, call any workspace or handle
// method (including writers — they commit versions the view simply does
// not observe), and never blocks ApplyBatch. The WorkspaceView and its
// yielded tuples stay valid (and immutable) even past f's return,
// though idiomatic callers still treat them as scoped to the callback.
func (w *Workspace) View(f func(v *WorkspaceView)) {
	f(&WorkspaceView{snap: w.Snapshot()})
}

// WorkspaceView is the read surface View hands its callback: a pinned
// WorkspaceSnapshot addressed by registration name. All reads observe
// the one pinned state, lock-free.
type WorkspaceView struct {
	snap *WorkspaceSnapshot
}

// Snapshot returns the underlying pinned snapshot.
func (v *WorkspaceView) Snapshot() *WorkspaceSnapshot { return v.snap }

// Version returns the pinned version.
func (v *WorkspaceView) Version() uint64 { return v.snap.version }

// Cardinality returns |D| of the shared store at the pinned state.
func (v *WorkspaceView) Cardinality() int { return v.snap.card }

// ActiveDomainSize returns n = |adom(D)| at the pinned state.
func (v *WorkspaceView) ActiveDomainSize() int { return v.snap.adom }

func (v *WorkspaceView) query(name string) *QuerySnapshot {
	s := v.snap.queries[name]
	if s == nil {
		panic(fmt.Sprintf("dyncq: no query %q pinned in this view", name))
	}
	return s
}

// Count returns |ϕ(D)| of the named query at the pinned state.
func (v *WorkspaceView) Count(name string) uint64 { return v.query(name).Count() }

// Answer reports whether the named query's result is nonempty.
func (v *WorkspaceView) Answer(name string) bool { return v.query(name).Answer() }

// Enumerate streams the named query's result at the pinned state, in
// lexicographic order (QuerySnapshot.Enumerate). The yielded slice is a
// window into the snapshot's immutable storage (the uniform contract —
// copy to retain — stays safe, merely conservative).
func (v *WorkspaceView) Enumerate(name string, yield func(tuple []Value) bool) {
	v.query(name).Enumerate(yield)
}

// Tuples returns the named query's full result, in lexicographic order,
// as row windows into the snapshot's immutable storage
// (QuerySnapshot.Tuples): read-only.
func (v *WorkspaceView) Tuples(name string) [][]Value { return v.query(name).Tuples() }

// ---- strategy adapters ----

// coreBackend adapts a core engine: the per-atom update procedures are
// order-independent of the store mutation, so everything runs in finish
// (parallel over shards when workers allow), which is also where the
// engine emits the commit's result delta. The engine holds no store;
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
func (b *coreBackend) finish(survivors []Update, workers int) (added, removed [][]Value) {
	return b.e.ApplyDelta(survivors, workers, b.emit)
}
func (b *coreBackend) rebuild() error { return b.e.Rebuild(b.store) }
func (b *coreBackend) clear()         { b.e.Clear() }

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
func (b *ivmBackend) finish([]Update, int) (added, removed [][]Value) {
	return b.m.FinishBatch()
}
func (b *ivmBackend) rebuild() error { return b.m.Rebuild() }
func (b *ivmBackend) clear()         { b.m.Clear() }
