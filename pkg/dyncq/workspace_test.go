package dyncq

import (
	"fmt"
	"math/rand"
	"reflect"
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
		n, err := ws.ApplyBatch(stream[from:to])
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range solos {
			sn, err := s.ApplyBatch(stream[from:to])
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
		if _, err := ws.ApplyBatched(stream, 50); err != nil {
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

// TestWorkspaceCrossQueryConsistency: after any ApplyBatch and after a
// failed Load, every registered query observes the same version and the
// same (possibly empty) shared state.
func TestWorkspaceCrossQueryConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	ws := NewWorkspace(WorkspaceOptions{})
	for _, c := range multiSuite() {
		if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
			t.Fatal(err)
		}
	}
	stream := workload.RandomStream(rng, multiSchema(), 8, 200, 0.4)
	if _, err := ws.ApplyBatched(stream, 25); err != nil {
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

	// A failed Load (arity clash with a registered query) leaves the
	// WHOLE workspace empty, at one new version, and still usable.
	bad := dyndb.New()
	if _, err := bad.Insert("E", 1); err != nil { // unary E, queries want binary
		t.Fatal(err)
	}
	if err := ws.Load(bad); err == nil {
		t.Fatal("mismatched-arity Load accepted")
	}
	v2 := ws.Version()
	if v2 != v+1 {
		t.Fatalf("failed Load advanced version to %d, want %d", v2, v+1)
	}
	if ws.Cardinality() != 0 {
		t.Fatalf("|D| = %d after failed Load, want 0", ws.Cardinality())
	}
	for _, h := range ws.Handles() {
		if h.Version() != v2 {
			t.Fatalf("query %s observes version %d after failed Load, workspace is at %d", h.Name(), h.Version(), v2)
		}
		if h.Count() != 0 || h.Answer() {
			t.Fatalf("query %s: count=%d answer=%v after failed Load, want empty", h.Name(), h.Count(), h.Answer())
		}
	}
	// Still alive.
	for _, u := range []Update{Insert("E", 1, 2), Insert("T", 2), Insert("S", 1)} {
		if _, err := ws.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	if got := ws.Handle("star").Count(); got != 1 {
		t.Fatalf("star count %d after recovery inserts, want 1", got)
	}
	if got := ws.Handle("hard").Count(); got != 1 {
		t.Fatalf("hard count %d after recovery inserts, want 1", got)
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
	if _, err := ws.ApplyBatch(stream); err != nil {
		t.Fatal(err)
	}
	oracle := db.Clone()
	if err := oracle.ApplyAll(dyndb.Coalesce(stream)); err != nil {
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
	if _, err := ws.ApplyBatched(more, 16); err != nil {
		t.Fatal(err)
	}
	if err := oracle.ApplyAll(dyndb.Coalesce(more)); err != nil {
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
	if _, err := ws.Register("", "Q(x) :- S(x)"); err == nil {
		t.Fatal("empty name accepted")
	}
	// E is binary in q1: a unary E must be rejected.
	if _, err := ws.Register("q2", "Q(x) :- E(x)"); err == nil {
		t.Fatal("conflicting arity across queries accepted")
	}
	// A store-declared relation outside every query also pins its arity.
	if _, err := ws.Insert("X", 1, 2); err != nil {
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

// TestWorkspaceView: a snapshot pins one version and one state across
// every registered query.
func TestWorkspaceView(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	ws := NewWorkspace(WorkspaceOptions{})
	for _, c := range multiSuite() {
		if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), c.opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ws.ApplyBatch(workload.RandomStream(rng, multiSchema(), 8, 150, 0.3)); err != nil {
		t.Fatal(err)
	}
	ws.View(func(v *WorkspaceView) {
		if v.Version() != ws.version.Load() {
			t.Fatalf("view version %d, workspace %d", v.Version(), ws.version.Load())
		}
		for _, c := range multiSuite() {
			if v.Count(c.name) != uint64(len(v.Tuples(c.name))) {
				t.Fatalf("query %s: view count %d but %d tuples", c.name, v.Count(c.name), len(v.Tuples(c.name)))
			}
			if v.Answer(c.name) != (v.Count(c.name) > 0) {
				t.Fatalf("query %s: view answer inconsistent with count", c.name)
			}
		}
		if v.Cardinality() != ws.store.Cardinality() {
			t.Fatalf("view |D| %d, store %d", v.Cardinality(), ws.store.Cardinality())
		}
	})
}

// TestWorkspaceParallelMatchesSequential: a workspace with parallel
// workers reaches exactly the state (including enumeration order, at a
// fixed shard count) of a sequential workspace over the same stream.
func TestWorkspaceParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	stream := workload.RandomStream(rng, multiSchema(), 20, 800, 0.35)
	run := func(workers int) *Workspace {
		ws := NewWorkspace(WorkspaceOptions{Workers: workers})
		for _, c := range multiSuite() {
			opt := c.opt
			opt.Shards = 8 // identical shard count ⇒ identical enumeration order
			if _, err := ws.RegisterQuery(c.name, cq.MustParse(c.text), opt); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ws.ApplyBatched(stream, 64); err != nil {
			t.Fatal(err)
		}
		return ws
	}
	seq, par := run(1), run(4)
	for _, c := range multiSuite() {
		hs, hp := seq.Handle(c.name), par.Handle(c.name)
		got, want := hp.Tuples(), hs.Tuples()
		exactTuples(t, hs.Strategy(), "query "+c.name, got, want)
	}
}

// TestWorkspaceDict: the string front door — InsertS/DeleteS encode
// through the workspace dictionary; deleting a never-seen constant is a
// no-op that allocates no code.
func TestWorkspaceDict(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("q", "Q(y) :- E(x,y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	mustChange := func(changed bool, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			t.Fatal("expected a change")
		}
	}
	mustChange(ws.InsertS("E", "alice", "bob"))
	mustChange(ws.InsertS("T", "bob"))
	if got := h.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	d := ws.Dict()
	tuples := h.Tuples()
	if len(tuples) != 1 || d.Decode(tuples[0][0]) != "bob" {
		t.Fatalf("tuples = %v, want [bob] under the dictionary", tuples)
	}
	before := d.Len()
	if changed, err := ws.DeleteS("E", "alice", "nobody"); err != nil || changed {
		t.Fatalf("DeleteS of unseen constant: changed=%v err=%v, want no-op", changed, err)
	}
	if d.Len() != before {
		t.Fatalf("DeleteS of unseen constant allocated a code (%d -> %d)", before, d.Len())
	}
	// Arity mismatches error even when a name is unseen: the unseen-name
	// no-op must not mask a caller bug the other write paths surface.
	if _, err := ws.DeleteS("E", "nobody"); err == nil {
		t.Fatal("DeleteS with wrong arity accepted")
	}
	// And a rejected InsertS assigns no codes either.
	before = d.Len()
	if _, err := ws.InsertS("E", "p", "q", "r"); err == nil {
		t.Fatal("InsertS with wrong arity accepted")
	}
	if d.Len() != before {
		t.Fatalf("rejected InsertS allocated codes (%d -> %d)", before, d.Len())
	}
	mustChange(ws.DeleteS("T", "bob"))
	if h.Answer() {
		t.Fatal("answer = true after DeleteS, want false")
	}
}

// TestWorkspaceDictInsideCallback: Dict never takes the workspace lock,
// so decoding inside Enumerate/View callbacks (which hold the read
// lock) must not deadlock — the natural way to print string tuples.
func TestWorkspaceDictInsideCallback(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("q", "Q(y) :- E(x,y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.InsertS("E", "alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.InsertS("T", "bob"); err != nil {
		t.Fatal(err)
	}
	var got string
	h.Enumerate(func(tuple []Value) bool {
		got = ws.Dict().Decode(tuple[0])
		return true
	})
	if got != "bob" {
		t.Fatalf("decoded %q inside Enumerate, want %q", got, "bob")
	}
	ws.View(func(v *WorkspaceView) {
		if n := ws.Dict().Len(); n != 2 {
			t.Fatalf("dict has %d symbols inside View, want 2", n)
		}
	})

	// First use inside a callback must lazily create the dict without
	// touching the workspace lock either.
	ws2 := NewWorkspace(WorkspaceOptions{})
	if _, err := ws2.Register("q", "Q(y) :- E(x,y), T(y)"); err != nil {
		t.Fatal(err)
	}
	ws2.View(func(v *WorkspaceView) {
		if d := ws2.Dict(); d == nil {
			t.Fatal("Dict() = nil inside View")
		}
	})
}

// TestWorkspaceEmptyThenRegister: updates before the first registration
// populate the store only; a later registration picks them up.
func TestWorkspaceEmptyThenRegister(t *testing.T) {
	ws := NewWorkspace(WorkspaceOptions{})
	if _, err := ws.ApplyBatch([]Update{Insert("E", 1, 2), Insert("T", 2)}); err != nil {
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
