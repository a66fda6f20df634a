package dyncq

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
)

// multiSuite is the standard mixed-strategy registration set used by the
// workspace tests: K = 4 queries over one shared schema {E/2, S/1, T/1},
// covering both maintenance strategies, each on a q-hierarchical query.
func multiSuite() []struct {
	name string
	text string
	opt  Options
} {
	return []struct {
		name string
		text string
		opt  Options
	}{
		{"star", "Q(y) :- E(x,y), T(y)", Options{}},                     // core (auto)
		{"hard", "Q(x,y) :- S(x), E(x,y), T(y)", Options{}},             // ivm (auto: not q-hierarchical)
		{"scan", "Q(x,y) :- E(x,y), T(y)", Options{Force: StrategyIVM}}, // ivm (forced)
		{"pair", "Q(x) :- S(x), T(x)", Options{}},                       // core (auto)
	}
}

func multiSchema() map[string]int { return map[string]int{"E": 2, "S": 1, "T": 1} }

// exactTuples compares result sequences: core backends have a
// deterministic enumeration order, so shared and solo must agree byte
// for byte in sequence; ivm enumerates in unspecified (map) order, so
// its sequences are canonicalised by sorting first — byte-identical
// content either way.
func exactTuples(t *testing.T, strategy Strategy, label string, got, want [][]Value) {
	t.Helper()
	if strategy != StrategyCore {
		sortTuples(got)
		sortTuples(want)
	}
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: tuples diverge\n got: %v\nwant: %v", label, got, want)
	}
}

// TestWorkspaceMatchesSoloWorkspaces is the headline contract of the
// front door: a workspace with K ≥ 3 registered queries (mixed
// core/ivm) replaying one update stream produces, for every
// query, results identical to K one-query workspaces replaying the same
// stream — while the shared store is applied once per batch, so its
// mutation count is that of ONE one-query workspace, independent of K.
func TestWorkspaceMatchesSoloWorkspaces(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	suite := multiSuite()
	init := workload.RandomDatabase(rng, multiSchema(), 10, 60)
	stream := workload.RandomStream(rng, multiSchema(), 10, 600, 0.4)

	ws := NewWorkspace(WorkspaceOptions{})
	var handles []*Handle
	var solos []*Workspace
	var soloHs []*Handle
	for _, c := range suite {
		q := cq.MustParse(c.text)
		h, err := ws.RegisterQuery(c.name, q, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		s, sh := solo(t, q, c.opt)
		solos, soloHs = append(solos, s), append(soloHs, sh)
	}
	if err := ws.Load(init); err != nil {
		t.Fatal(err)
	}
	for _, s := range solos {
		if err := s.Load(init); err != nil {
			t.Fatal(err)
		}
	}
	wsBase := ws.StoreMutations()
	soloBase := make([]uint64, len(solos))
	for i, s := range solos {
		soloBase[i] = s.StoreMutations()
	}

	const batch = 37
	for from := 0; from < len(stream); from += batch {
		to := from + batch
		if to > len(stream) {
			to = len(stream)
		}
		n, _, err := ws.Commit(stream[from:to])
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range solos {
			sn, _, err := s.Commit(stream[from:to])
			if err != nil {
				t.Fatal(err)
			}
			if sn != n {
				t.Fatalf("batch @%d: workspace applied %d net commands, solo %s applied %d", from, n, suite[i].name, sn)
			}
		}
		// Every query agrees with its one-query workspace at every batch
		// boundary.
		for i, h := range handles {
			if h.Count() != soloHs[i].Count() {
				t.Fatalf("batch @%d, query %s: shared count %d, solo %d", from, h.Name(), h.Count(), soloHs[i].Count())
			}
			exactTuples(t, h.Strategy(), fmt.Sprintf("batch @%d, query %s", from, h.Name()),
				h.Tuples(), soloHs[i].Tuples())
		}
	}

	// The shared store was applied once per batch: its mutation count is
	// exactly one solo workspace's worth, no matter how many queries are
	// live.
	wsMuts := ws.StoreMutations() - wsBase
	for i, s := range solos {
		soloMuts := s.StoreMutations() - soloBase[i]
		if wsMuts != soloMuts {
			t.Fatalf("store mutations: workspace (K=%d queries) %d, solo %s %d — must be equal",
				len(handles), wsMuts, suite[i].name, soloMuts)
		}
	}
}

// TestWorkspaceStoreMutationsIndependentOfK pins the acceptance claim
// directly: the same stream through workspaces with 1 and with 4
// registered queries mutates the shared store the same number of times.
func TestWorkspaceStoreMutationsIndependentOfK(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	stream := workload.RandomStream(rng, multiSchema(), 8, 400, 0.35)

	run := func(k int) uint64 {
		ws := NewWorkspace(WorkspaceOptions{})
		for _, c := range multiSuite()[:k] {
			if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := commitChunks(ws, stream, 50); err != nil {
			t.Fatal(err)
		}
		return ws.StoreMutations()
	}
	m1, m4 := run(1), run(4)
	if m1 != m4 {
		t.Fatalf("store mutations depend on K: %d with one query, %d with four", m1, m4)
	}
	if m1 == 0 {
		t.Fatal("stream produced no mutations; test is vacuous")
	}
}

// TestWorkspaceStoreIndependentOfFanOut: fanning a commit out to the
// queries maintains the engines, never the store — the same stream
// through a workspace with no query and through one with the mixed suite
// mutates the shared store the same number of times and leaves it with
// the same tuples.
func TestWorkspaceStoreIndependentOfFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	stream := workload.RandomStream(rng, multiSchema(), 12, 800, 0.35)
	run := func(k int) *Workspace {
		ws := NewWorkspace(WorkspaceOptions{})
		for _, c := range multiSuite()[:k] {
			if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := commitChunks(ws, stream, 64); err != nil {
			t.Fatal(err)
		}
		return ws
	}
	bare, full := run(0), run(len(multiSuite()))
	if bare.StoreMutations() == 0 {
		t.Fatal("stream produced no mutations; test is vacuous")
	}
	if bare.StoreMutations() != full.StoreMutations() {
		t.Fatalf("store mutations depend on the fan-out: %d with no query, %d with %d", bare.StoreMutations(), full.StoreMutations(), len(multiSuite()))
	}
	if !reflect.DeepEqual(bare.store.Updates(), full.store.Updates()) {
		t.Fatal("the store fanning out to the suite diverges from the store with no query")
	}
}

// TestWorkspaceCrossQueryConsistency: after any Commit and after a
// failed Load, every registered query observes the same version and the
// same shared state — for the failed Load, exactly the state before it.
func TestWorkspaceCrossQueryConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	ws := NewWorkspace(WorkspaceOptions{})
	for _, c := range multiSuite() {
		if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
			t.Fatal(err)
		}
	}
	stream := workload.RandomStream(rng, multiSchema(), 8, 200, 0.4)
	if _, err := commitChunks(ws, stream, 25); err != nil {
		t.Fatal(err)
	}
	oracle := dyndb.New()
	if err := oracle.ApplyAll(stream); err != nil {
		t.Fatal(err)
	}
	v := ws.Version()
	if v == 0 {
		t.Fatal("version did not advance")
	}
	for _, h := range ws.Handles() {
		if h.Version() != v {
			t.Fatalf("query %s observes version %d, workspace is at %d", h.Name(), h.Version(), v)
		}
	}

	// A failed Load (arity clash with a registered query) is rejected
	// atomically: the WHOLE workspace keeps its state and its version,
	// and stays usable.
	bad := dyndb.New()
	if _, err := bad.Insert("E", 1); err != nil { // unary E, queries want binary
		t.Fatal(err)
	}
	if err := ws.Load(bad); err == nil {
		t.Fatal("mismatched-arity Load accepted")
	}
	if v2 := ws.Version(); v2 != v {
		t.Fatalf("failed Load moved the version to %d, want %d", v2, v)
	}
	if ws.Cardinality() != oracle.Cardinality() {
		t.Fatalf("|D| = %d after failed Load, oracle %d", ws.Cardinality(), oracle.Cardinality())
	}
	for _, h := range ws.Handles() {
		if h.Version() != v {
			t.Fatalf("query %s observes version %d after failed Load, workspace is at %d", h.Name(), h.Version(), v)
		}
		if want := eval.Evaluate(h.Query(), oracle).Tuples(); !sameTuples(h.Tuples(), want) || h.Count() != uint64(len(want)) {
			t.Fatalf("query %s: count=%d after failed Load, oracle %d", h.Name(), h.Count(), len(want))
		}
	}
	// Still alive.
	for _, u := range []Update{Insert("E", 100, 200), Insert("T", 200), Insert("S", 100)} {
		if _, _, err := ws.Commit([]Update{u}); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range ws.Handles() {
		if want := eval.Count(h.Query(), oracle); h.Count() != uint64(want) {
			t.Fatalf("query %s: count %d after recovery inserts, oracle %d", h.Name(), h.Count(), want)
		}
	}
}

// TestWorkspaceHandleContracts re-runs the session-layer Load/Enumerate
// contracts per handle on a multi-query workspace: reset-then-load
// semantics and the callee-owned Enumerate slice contract hold for
// every registered query, not just for single-query sessions.
func TestWorkspaceHandleContracts(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	first := workload.RandomDatabase(rng, multiSchema(), 8, 40)
	second := workload.RandomDatabase(rng, multiSchema(), 8, 30)

	ws := NewWorkspace(WorkspaceOptions{})
	for _, c := range multiSuite() {
		if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Load(first); err != nil {
		t.Fatal(err)
	}
	if err := ws.Load(second); err != nil { // reset-then-load on a dirty workspace
		t.Fatal(err)
	}
	for _, h := range ws.Handles() {
		want := eval.Evaluate(h.Query(), second)
		if got := h.Count(); got != uint64(want.Len()) {
			t.Fatalf("query %s: count %d after reload, oracle %d", h.Name(), got, want.Len())
		}
		// Copied yields agree with Tuples() and the oracle.
		var copied [][]Value
		h.Enumerate(func(tu []Value) bool {
			copied = append(copied, append([]Value(nil), tu...))
			return true
		})
		if !sameTuples(copied, h.Tuples()) {
			t.Fatalf("query %s: copied enumeration disagrees with Tuples()", h.Name())
		}
		if !sameTuples(copied, want.Tuples()) {
			t.Fatalf("query %s: enumeration disagrees with oracle", h.Name())
		}
		// An abusive yield that scribbles over every slice it is handed
		// must corrupt neither earlier copies nor the workspace state.
		var abused [][]Value
		h.Enumerate(func(tu []Value) bool {
			abused = append(abused, append([]Value(nil), tu...))
			for i := range tu {
				tu[i] = -12345
			}
			return true
		})
		if !sameTuples(abused, want.Tuples()) {
			t.Fatalf("query %s: slice reuse leaked a caller mutation into a later yield", h.Name())
		}
		if !sameTuples(h.Tuples(), want.Tuples()) {
			t.Fatalf("query %s: state corrupted by mutating yielded slices", h.Name())
		}
	}
}

// TestWorkspaceLateRegister: queries registered against an
// already-populated store are immediately up to date, for every
// strategy.
func TestWorkspaceLateRegister(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	ws := NewWorkspace(WorkspaceOptions{})
	db := workload.RandomDatabase(rng, multiSchema(), 8, 50)
	if err := ws.Load(db); err != nil {
		t.Fatal(err)
	}
	stream := workload.RandomStream(rng, multiSchema(), 8, 100, 0.4)
	if _, _, err := ws.Commit(stream); err != nil {
		t.Fatal(err)
	}
	oracle := db.Clone()
	if err := oracle.ApplyAll(stream); err != nil {
		t.Fatal(err)
	}
	for _, c := range multiSuite() {
		q := cq.MustParse(c.text)
		h, err := ws.RegisterQuery(c.name, q, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		want := eval.Evaluate(q, oracle)
		if got := h.Count(); got != uint64(want.Len()) {
			t.Fatalf("late-registered %s [%v]: count %d, oracle %d", c.name, h.Strategy(), got, want.Len())
		}
		if !sameTuples(h.Tuples(), want.Tuples()) {
			t.Fatalf("late-registered %s [%v]: tuples disagree with oracle", c.name, h.Strategy())
		}
	}
	// And they stay live under further updates.
	more := workload.RandomStream(rng, multiSchema(), 8, 80, 0.4)
	if _, err := commitChunks(ws, more, 16); err != nil {
		t.Fatal(err)
	}
	if err := oracle.ApplyAll(more); err != nil {
		t.Fatal(err)
	}
	for _, h := range ws.Handles() {
		want := eval.Evaluate(h.Query(), oracle)
		if got := h.Count(); got != uint64(want.Len()) {
			t.Fatalf("%s [%v]: count %d after post-register stream, oracle %d", h.Name(), h.Strategy(), got, want.Len())
		}
	}
}

// TestWorkspaceRegisterRejects: name and schema conflicts are caught at
// registration, atomically.
func TestWorkspaceRegisterRejects(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	if _, err := ws.Register("q1", "Q(y) :- E(x,y), T(y)"); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Register("q1", "Q(x) :- S(x)"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// A query name is an identifier of the query syntax, or a tuple line
	// naming the query would not parse.
	for _, name := range []string{"", "a(b", "a\tb", "a b", "a,b", "1q", "q)", "+q", "E\xc0"} {
		if _, err := ws.Register(name, "Q(x) :- S(x)"); err == nil {
			t.Fatalf("query name %q accepted", name)
		}
	}
	for _, name := range []string{"q_2", "Eé", "q'"} {
		if _, err := ws.Register(name, "Q(x) :- S(x)"); err != nil || !ws.Unregister(name) {
			t.Fatalf("query name %q: %v", name, err)
		}
	}
	// E is binary in q1: a unary E must be rejected.
	if _, err := ws.Register("q2", "Q(x) :- E(x)"); err == nil {
		t.Fatal("conflicting arity across queries accepted")
	}
	// A store-declared relation outside every query also pins its arity.
	if _, _, err := ws.Commit([]Update{Insert("X", 1, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Register("q3", "Q(x) :- X(x)"); err == nil {
		t.Fatal("conflicting arity against the store accepted")
	}
	// Forcing core onto a non-q-hierarchical query fails.
	if _, err := ws.RegisterQuery("q4", cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)"), Options{Force: StrategyCore}); err == nil {
		t.Fatal("forced core on non-q-hierarchical query accepted")
	}
	// Failed registrations left no handle behind.
	if got := len(ws.Handles()); got != 1 {
		t.Fatalf("%d handles registered, want 1", got)
	}
	// Unregister frees the name and the schema constraint.
	if !ws.Unregister("q1") {
		t.Fatal("Unregister(q1) = false")
	}
	if ws.Unregister("q1") {
		t.Fatal("second Unregister(q1) = true")
	}
	if _, err := ws.Register("q1", "Q(x) :- E(x)"); err != nil {
		t.Fatalf("unary E after unregistering its binary owner: %v", err)
	}
}

// TestCommitRejectsEmptyTupleWholly: an insert of the empty tuple into a
// relation the workspace has never seen would declare a relation of arity
// 0, which no relation has. The whole batch is rejected — the insert
// ahead of it in the batch included — leaving version, store and count as
// they were, and the next commit is exact.
func TestCommitRejectsEmptyTupleWholly(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("q", "Q(x) :- E(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.Commit([]Update{Insert("E", 5, 6)}); err != nil {
		t.Fatal(err)
	}
	version, card, mutations := ws.Version(), ws.Cardinality(), ws.StoreMutations()
	n, v, err := ws.Commit([]Update{Insert("E", 1, 2), Insert("F")})
	if err == nil || !strings.Contains(err.Error(), "empty tuple") || n != 0 || v != version {
		t.Fatalf("a batch inserting F(): applied %d at version %d, err %v; want an empty-tuple error at version %d", n, v, err, version)
	}
	if ws.Version() != version || ws.Cardinality() != card || ws.StoreMutations() != mutations || h.Count() != 1 || ws.store.Has("E", 1, 2) {
		t.Fatalf("the rejected batch changed the workspace: version %d, |D| %d, mutations %d, count %d", ws.Version(), ws.Cardinality(), ws.StoreMutations(), h.Count())
	}
	if n, v, err := ws.Commit([]Update{Insert("E", 1, 2), Insert("E", 3, 4)}); err != nil || n != 2 || v != version+1 {
		t.Fatalf("the next commit: applied %d at version %d, err %v", n, v, err)
	}
	if ws.Cardinality() != 3 || h.Count() != 3 {
		t.Fatalf("after the next commit |D| %d and count %d, want 3 and 3", ws.Cardinality(), h.Count())
	}
	if err := ws.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkspaceSnapshot: a workspace snapshot pins one version and one
// state across every registered query.
func TestWorkspaceSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	ws := NewWorkspace(WorkspaceOptions{})
	for _, c := range multiSuite() {
		if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ws.Commit(workload.RandomStream(rng, multiSchema(), 8, 150, 0.3)); err != nil {
		t.Fatal(err)
	}
	snap := ws.Snapshot()
	if snap.Version() != ws.version.Load() {
		t.Fatalf("snapshot version %d, workspace %d", snap.Version(), ws.version.Load())
	}
	for _, c := range multiSuite() {
		q := snap.Query(c.name)
		if q.Version() != snap.Version() {
			t.Fatalf("query %s pinned at version %d, snapshot at %d", c.name, q.Version(), snap.Version())
		}
		if q.Count() != uint64(len(q.Tuples())) {
			t.Fatalf("query %s: snapshot count %d but %d tuples", c.name, q.Count(), len(q.Tuples()))
		}
		if q.Answer() != (q.Count() > 0) {
			t.Fatalf("query %s: snapshot answer inconsistent with count", c.name)
		}
	}
	if snap.Cardinality() != ws.store.Cardinality() {
		t.Fatalf("snapshot |D| %d, store %d", snap.Cardinality(), ws.store.Cardinality())
	}
}

// TestWorkspaceParallelMatchesSequential: commits issued from several
// goroutines at once reach exactly the state (enumeration order included)
// of one goroutine replaying the same batches in the order of the
// versions they got back. A batch that netted nothing changed nothing, so
// the replay skips it.
func TestWorkspaceParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	stream := workload.RandomStream(rng, multiSchema(), 20, 800, 0.35)
	register := func() *Workspace {
		ws := NewWorkspace(WorkspaceOptions{})
		for _, c := range multiSuite() {
			if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
				t.Fatal(err)
			}
		}
		return ws
	}
	const writers, batch = 4, 32
	par := register()
	var mu sync.Mutex
	byVersion := make(map[uint64][]Update)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for from := w * batch; from < len(stream); from += writers * batch {
				chunk := stream[from:min(from+batch, len(stream))]
				n, v, err := par.Commit(chunk)
				if err != nil {
					t.Error(err)
					return
				}
				if n > 0 {
					mu.Lock()
					byVersion[v] = chunk
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if got, want := uint64(len(byVersion)), par.Version(); got != want {
		t.Fatalf("%d commits changed the store, but the version is %d", got, want)
	}
	seq := register()
	for v := uint64(1); v <= par.Version(); v++ {
		if n, got, err := seq.Commit(byVersion[v]); err != nil || n == 0 || got != v {
			t.Fatalf("replaying version %d: netted %d at version %d (err %v)", v, n, got, err)
		}
	}
	for _, c := range multiSuite() {
		hs, hp := seq.Handle(c.name), par.Handle(c.name)
		exactTuples(t, hs.Strategy(), "query "+c.name, hp.Tuples(), hs.Tuples())
	}
}

// TestWorkspaceEmptyThenRegister: updates before the first registration
// populate the store only; a later registration picks them up.
func TestWorkspaceEmptyThenRegister(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	if _, _, err := ws.Commit([]Update{Insert("E", 1, 2), Insert("T", 2)}); err != nil {
		t.Fatal(err)
	}
	if ws.Cardinality() != 2 {
		t.Fatalf("|D| = %d, want 2", ws.Cardinality())
	}
	h, err := ws.Register("q", "Q(y) :- E(x,y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Count(); got != 1 {
		t.Fatalf("count = %d after late registration, want 1", got)
	}
}

// TestRelationIDsSurviveLoadAndUnregister walks the store's relation ids
// through what keeps or changes a relation's arity while its id stays:
// X, outside every query, declared at arity 2, then loaded at arity 3;
// Y, mentioned only by a query that is unregistered before Y is ever
// inserted, then registered again at arity 3. Every commit is a batch of
// two, so it goes through the coalescer's tables, and after every commit
// the workspace passes CheckInvariants and every query equals the oracle.
func TestRelationIDsSurviveLoadAndUnregister(t *testing.T) {
	for _, st := range []Strategy{StrategyCore, StrategyIVM} {
		t.Run(st.String(), func(t *testing.T) {
			ws := NewWorkspace(WorkspaceOptions{})
			register := func(name, text string) {
				t.Helper()
				if _, err := ws.RegisterQuery(name, cq.MustParse(text), Options{Force: st}); err != nil {
					t.Fatal(err)
				}
			}
			register("star", "Q(y) :- E(x,y), T(y)")
			register("y2", "Q(x) :- Y(x,y)")
			oracle := dyndb.New()
			check := func(where string) {
				t.Helper()
				if err := ws.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				for _, h := range ws.Handles() {
					if want := eval.Evaluate(h.Query(), oracle).Tuples(); !sameTuples(h.Tuples(), want) {
						t.Fatalf("%s: query %q holds %v, oracle %v", where, h.Name(), h.Tuples(), want)
					}
				}
			}
			commit := func(wantErr string, batch ...Update) {
				t.Helper()
				_, _, err := ws.Commit(batch)
				switch {
				case wantErr == "" && err != nil:
					t.Fatalf("%v: %v", batch, err)
				case wantErr != "" && (err == nil || err.Error() != wantErr):
					t.Fatalf("%v: error %v, want %q", batch, err, wantErr)
				case err == nil:
					if err := oracle.ApplyAll(batch); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprint(batch))
			}

			commit("", Insert("X", 1, 2), Insert("X", 3, 4), Insert("E", 1, 2), Insert("T", 2))
			db := dyndb.New()
			for _, u := range []Update{Insert("X", 0, 0, 0), Insert("E", 5, 6), Insert("T", 6)} {
				if _, err := db.Apply(u); err != nil {
					t.Fatal(err)
				}
			}
			if err := ws.Load(db); err != nil {
				t.Fatal(err)
			}
			oracle = db.Clone()
			check("Load")
			commit("", Insert("X", 1, 2, 3), Insert("X", 2, 3, 4))
			commit("dyncq: X has arity 3 in the shared store, got tuple of length 2", Delete("X", 1, 2), Delete("X", 2, 3))

			if !ws.Unregister("y2") {
				t.Fatal("y2 was not registered")
			}
			register("y3", "Q(x) :- Y(x,y,z)")
			commit(`dyncq: Y has arity 3 in query "y3", got tuple of length 2`, Delete("Y", 1, 2), Delete("Y", 3, 4))
			commit("", Insert("Y", 1, 2, 3), Insert("Y", 4, 5, 6))
			commit("", Delete("Y", 1, 2, 3), Insert("E", 7, 6))
			commit(`dyncq: Y has arity 3 in query "y3", got tuple of length 2`, Insert("Y", 1, 2), Insert("E", 8, 6))
		})
	}
}
