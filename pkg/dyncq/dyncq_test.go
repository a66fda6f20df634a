package dyncq

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dyncq/internal/core"
	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
)

// solo registers q as the only query ("q") of a fresh workspace: writes
// go through the workspace, reads through the handle.
func solo(t testing.TB, q *cq.Query, opt Options) (*Workspace, *Handle) {
	t.Helper()
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.RegisterQuery("q", q, opt)
	if err != nil {
		t.Fatalf("register %s (force %v): %v", q, opt.Force, err)
	}
	return ws, h
}

// fannedOut returns a fresh workspace on which every write, of any size,
// fans out over width goroutines once two or more queries are
// registered (width 1: none does). It overrides both inputs of the
// fan-out rule, so small test streams take the concurrent path, on a
// GOMAXPROCS=1 run as well.
func fannedOut(width int) *Workspace {
	ws := NewWorkspace(WorkspaceOptions{})
	ws.maxWidth, ws.minFanOut = width, 1
	return ws
}

// soloPerStrategy builds one solo workspace per strategy for q.
func soloPerStrategy(t testing.TB, q *cq.Query, strategies ...Strategy) ([]*Workspace, []*Handle) {
	t.Helper()
	var wss []*Workspace
	var hs []*Handle
	for _, st := range strategies {
		ws, h := solo(t, q, Options{Force: st})
		wss, hs = append(wss, ws), append(hs, h)
	}
	return wss, hs
}

// qHierarchicalQueries are routed to the core engine.
var qHierarchicalQueries = []string{
	"Q(y) :- E(x,y), T(y)",
	"Q(x) :- R(x)",
	"Q(x,y) :- E(x,y)",
	"Q() :- E(x,y), T(y)",
	"Q(x) :- R(x), S(x), E(x,y)",
}

// nonQHierarchicalQueries fall back to IVM.
var nonQHierarchicalQueries = []string{
	"Q(x) :- E(x,y), T(y)",                // ϕE-T: violates condition (ii)
	"Q(x,y) :- S(x), E(x,y), T(y)",        // ϕS-E-T
	"Q() :- S(x), E(x,y), T(y)",           // ϕ1: non-hierarchical Boolean
	"Q(x,z) :- E(x,y), F(y,z)",            // path join, no common variable
	"Q() :- E(x,y), E2(y,z), E3(z,x)",     // triangle
	"Q(x,y,z) :- E(x,y), F(y,z), G(z,x)",  // cyclic with free vars
	"Q(a) :- R(a,b), S(b,c), T(c)",        // chain
	"Q(u) :- A(u,v), B(v,w), C(u,w,v)",    // mixed
	"Q(x) :- E(x,y), F(x,z), G(y,z)",      // y,z incomparable overlap
	"Q(v) :- R(v,w), S(w), T(w,u), U(u)",  // deep chain
	"Q(x,y) :- R(x,u), S(u,y), T(y)",      // free vars split by quantified
	"Q() :- R(a,b), S(b,c), T(c,d), U(d)", // long Boolean chain
}

// TestRoutingQHierarchical: q-hierarchical queries must be served by the
// core engine (the constant-delay path).
func TestRoutingQHierarchical(t *testing.T) {
	for _, text := range qHierarchicalQueries {
		h, err := NewWorkspace(WorkspaceOptions{}).Register("q", text)
		if err != nil {
			t.Fatalf("Register(%q): %v", text, err)
		}
		if got := h.Strategy(); got != StrategyCore {
			t.Errorf("%s: strategy %v, want core", text, got)
		}
		if !h.Classification().QHierarchical {
			t.Errorf("%s: classification says not q-hierarchical", text)
		}
	}
}

// TestRoutingFallback: non-q-hierarchical queries must fall back to IVM.
func TestRoutingFallback(t *testing.T) {
	for _, text := range nonQHierarchicalQueries {
		h, err := NewWorkspace(WorkspaceOptions{}).Register("q", text)
		if err != nil {
			t.Fatalf("Register(%q): %v", text, err)
		}
		if got := h.Strategy(); got != StrategyIVM {
			t.Errorf("%s: strategy %v, want ivm", text, got)
		}
		if h.Classification().QHierarchical {
			t.Errorf("%s: classification says q-hierarchical", text)
		}
	}
}

func TestForceStrategy(t *testing.T) {
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	for _, st := range []Strategy{StrategyCore, StrategyIVM} {
		_, h := solo(t, q, Options{Force: st})
		if h.Strategy() != st {
			t.Errorf("forced %v, got %v", st, h.Strategy())
		}
	}
	// Forcing core on a non-q-hierarchical query must fail.
	hard := cq.MustParse("Q(x) :- E(x,y), T(y)")
	if _, err := NewWorkspace(WorkspaceOptions{}).RegisterQuery("q", hard, Options{Force: StrategyCore}); err == nil {
		t.Errorf("forcing core on %s: want error, got nil", hard)
	}
}

// TestStrategiesAgree runs the same random streams through every strategy
// and cross-checks count, answer and the enumerated tuple sets against
// the static evaluator.
func TestStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	queries := []*cq.Query{
		cq.MustParse("Q(y) :- E(x,y), T(y)"),
		cq.MustParse("Q(x) :- E(x,y), T(y)"),
		cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)"),
		cq.MustParse("Q() :- E(x,y), T(y)"),
	}
	for i := 0; i < 6; i++ {
		queries = append(queries, workload.RandomQHierarchical(rng, workload.DefaultQHOptions()))
	}
	for _, q := range queries {
		stream := workload.RandomStream(rng, q.Schema(), 8, 120, 0.35)
		db := dyndb.New()
		wss, hs := soloPerStrategy(t, q, StrategyAuto, StrategyIVM)
		for ui, u := range stream {
			if _, err := db.Apply(u); err != nil {
				t.Fatalf("%s: db apply: %v", q, err)
			}
			for i, ws := range wss {
				if _, _, err := ws.Commit([]Update{u}); err != nil {
					t.Fatalf("%s [%v]: apply %s: %v", q, hs[i].Strategy(), u, err)
				}
			}
			if ui%40 != 39 && ui != len(stream)-1 {
				continue
			}
			want := eval.Evaluate(q, db)
			for _, h := range hs {
				if got := h.Count(); got != uint64(want.Len()) {
					t.Fatalf("%s [%v] after %d updates: count %d, want %d", q, h.Strategy(), ui+1, got, want.Len())
				}
				if got := h.Answer(); got != (want.Len() > 0) {
					t.Fatalf("%s [%v]: answer %v, want %v", q, h.Strategy(), got, want.Len() > 0)
				}
				if !sameTuples(h.Tuples(), want.Tuples()) {
					t.Fatalf("%s [%v]: enumerated tuples disagree with eval", q, h.Strategy())
				}
			}
		}
	}
}

// commitChunks commits the stream in chunks of size updates, each chunk
// its own commit, returning the net commands applied and stopping at the
// first error.
func commitChunks(ws *Workspace, stream []Update, size int) (int, error) {
	applied := 0
	for from := 0; from < len(stream); from += size {
		n, _, err := ws.Commit(stream[from:min(from+size, len(stream))])
		applied += n
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}

func sameTuples(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true // nil vs empty slice both mean "no tuples"
	}
	sortTuples(a)
	sortTuples(b)
	return reflect.DeepEqual(a, b)
}

func sortTuples(ts [][]int64) {
	sort.Slice(ts, func(i, j int) bool {
		x, y := ts[i], ts[j]
		for k := range x {
			if x[k] != y[k] {
				return x[k] < y[k]
			}
		}
		return false
	})
}

func TestSoloBasics(t *testing.T) {
	ws, h := solo(t, cq.MustParse("Q(y) :- E(x,y), T(y)"), Options{})
	mustChange := func(u Update) {
		t.Helper()
		n, _, err := ws.Commit([]Update{u})
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatal("expected a change")
		}
	}
	mustChange(Insert("E", 1, 2))
	mustChange(Insert("T", 2))
	if got := h.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if !h.Answer() {
		t.Fatal("answer = false, want true")
	}
	if got := h.Tuples(); len(got) != 1 || got[0][0] != 2 {
		t.Fatalf("tuples = %v, want [[2]]", got)
	}
	mustChange(Delete("T", 2))
	if h.Answer() {
		t.Fatal("answer = true after delete, want false")
	}
	if got := ws.Cardinality(); got != 1 {
		t.Fatalf("cardinality = %d, want 1", got)
	}
	// Arity mismatch must surface as an error on every backend.
	if _, _, err := ws.Commit([]Update{Insert("E", 1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestLoad(t *testing.T) {
	db := dyndb.New()
	for _, u := range []Update{
		dyndb.Insert("E", 1, 2), dyndb.Insert("E", 3, 2), dyndb.Insert("T", 2),
	} {
		if _, err := db.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	ws, h := solo(t, cq.MustParse("Q(x) :- E(x,y), T(y)"), Options{})
	if err := ws.Load(db); err != nil {
		t.Fatal(err)
	}
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

// TestAdmissibleStrategiesMatchOracle registers every routing-table query
// three ways — auto, forced core and forced ivm — and replays one random
// stream in batches. Auto must report the backend it resolved to, never
// "auto"; forcing core must fail with core.ErrNotQHierarchical exactly on
// the non-q-hierarchical queries; and every backend that registered must
// match the static evaluator at every batch boundary. This carries the
// cyclic and chain queries of the fallback table through the oracle,
// which the random q-hierarchical streams elsewhere never reach.
func TestAdmissibleStrategiesMatchOracle(t *testing.T) {
	texts := append(append([]string(nil), qHierarchicalQueries...), nonQHierarchicalQueries...)
	for i, text := range texts {
		qh := i < len(qHierarchicalQueries)
		t.Run(text, func(t *testing.T) {
			q := cq.MustParse(text)
			auto, autoH := solo(t, q, Options{})
			wantRoute := StrategyIVM
			if qh {
				wantRoute = StrategyCore
			}
			if got := autoH.Strategy(); got != wantRoute || got.String() == "auto" {
				t.Fatalf("auto resolved to %v, want %v", got, wantRoute)
			}
			wss, hs := []*Workspace{auto}, []*Handle{autoH}
			_, err := NewWorkspace(WorkspaceOptions{}).RegisterQuery("q", q, Options{Force: StrategyCore})
			switch {
			case qh && err != nil:
				t.Fatalf("forcing core: %v", err)
			case !qh && !errors.Is(err, core.ErrNotQHierarchical):
				t.Fatalf("forcing core: error %v, want core.ErrNotQHierarchical", err)
			}
			if qh {
				ws, h := solo(t, q, Options{Force: StrategyCore})
				wss, hs = append(wss, ws), append(hs, h)
			}
			ws, h := solo(t, q, Options{Force: StrategyIVM})
			wss, hs = append(wss, ws), append(hs, h)

			rng := rand.New(rand.NewSource(int64(31 + i)))
			stream := workload.RandomStream(rng, q.Schema(), 5, 160, 0.35)
			db := dyndb.New()
			const size = 20
			for from := 0; from < len(stream); from += size {
				chunk := stream[from:min(from+size, len(stream))]
				for _, u := range chunk {
					if _, err := db.Apply(u); err != nil {
						t.Fatal(err)
					}
				}
				want := eval.Evaluate(q, db)
				for j, ws := range wss {
					if _, _, err := ws.Commit(chunk); err != nil {
						t.Fatalf("[%v] Commit: %v", hs[j].Strategy(), err)
					}
					if got := hs[j].Count(); got != uint64(want.Len()) {
						t.Fatalf("[%v] after %d updates: count %d, oracle %d", hs[j].Strategy(), from+len(chunk), got, want.Len())
					}
					if !sameTuples(hs[j].Tuples(), want.Tuples()) {
						t.Fatalf("[%v] after %d updates: tuples disagree with eval", hs[j].Strategy(), from+len(chunk))
					}
				}
			}
		})
	}
}

// TestApplyBatchAgreesAcrossStrategies drives every backend through the
// same stream in batches and checks counts and result sets against the
// static oracle at every batch boundary — the front-door contract of the
// batch pipeline.
func TestApplyBatchAgreesAcrossStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := []*cq.Query{
		cq.MustParse("Q(y) :- E(x,y), T(y)"),
		cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)"),
	}
	for i := 0; i < 3; i++ {
		queries = append(queries, workload.RandomQHierarchical(rng, workload.DefaultQHOptions()))
	}
	for _, q := range queries {
		stream := workload.RandomStream(rng, q.Schema(), 6, 120, 0.4)
		db := dyndb.New()
		wss, hs := soloPerStrategy(t, q, StrategyAuto, StrategyIVM)
		size := 13
		for from := 0; from < len(stream); from += size {
			to := from + size
			if to > len(stream) {
				to = len(stream)
			}
			chunk := stream[from:to]
			for _, u := range chunk {
				if _, err := db.Apply(u); err != nil {
					t.Fatal(err)
				}
			}
			for i, ws := range wss {
				if _, _, err := ws.Commit(chunk); err != nil {
					t.Fatalf("%s [%v]: Commit: %v", q, hs[i].Strategy(), err)
				}
			}
			want := eval.Evaluate(q, db)
			for _, h := range hs {
				if got := h.Count(); got != uint64(want.Len()) {
					t.Fatalf("%s [%v]: count %d, oracle %d", q, h.Strategy(), got, want.Len())
				}
				if !sameTuples(h.Tuples(), want.Tuples()) {
					t.Fatalf("%s [%v]: batched tuples disagree with eval", q, h.Strategy())
				}
			}
		}
	}
}

// TestLoadBulkAgreesAcrossStrategies: Workspace.Load must produce the same
// state as single-update replay on every backend.
func TestLoadBulkAgreesAcrossStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, qs := range []string{
		"Q(y) :- E(x,y), T(y)",
		"Q(x,y) :- S(x), E(x,y), T(y)",
	} {
		q := cq.MustParse(qs)
		db := workload.RandomDatabase(rng, q.Schema(), 8, 50)
		want := eval.Evaluate(q, db)
		for _, st := range []Strategy{StrategyAuto, StrategyIVM} {
			ws, h := solo(t, q, Options{Force: st})
			if err := ws.Load(db); err != nil {
				t.Fatalf("%s [%v]: Load: %v", q, h.Strategy(), err)
			}
			if got := h.Count(); got != uint64(want.Len()) {
				t.Fatalf("%s [%v]: count %d after Load, oracle %d", q, h.Strategy(), got, want.Len())
			}
			if ws.Cardinality() != db.Cardinality() {
				t.Fatalf("%s [%v]: |D| = %d, want %d", q, h.Strategy(), ws.Cardinality(), db.Cardinality())
			}
		}
	}
}

// TestApplyBatchCancellation: a fully cancelled batch is a no-op on every
// backend.
func TestApplyBatchCancellation(t *testing.T) {
	for _, st := range []Strategy{StrategyCore, StrategyIVM} {
		ws, _ := solo(t, cq.MustParse("Q(y) :- E(x,y), T(y)"), Options{Force: st})
		n, _, err := ws.Commit([]Update{
			dyndb.Insert("E", 1, 2),
			dyndb.Delete("E", 1, 2),
		})
		if err != nil {
			t.Fatalf("[%v]: %v", st, err)
		}
		if n != 0 || ws.Cardinality() != 0 {
			t.Errorf("[%v]: net=%d |D|=%d after cancelled batch, want 0 0", st, n, ws.Cardinality())
		}
	}
}

// TestChunkedCommits: committing a stream in chunks matches one commit of
// the whole stream.
func TestChunkedCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	stream := workload.RandomStream(rng, q.Schema(), 6, 100, 0.4)
	whole, wholeH := solo(t, q, Options{})
	if _, _, err := whole.Commit(stream); err != nil {
		t.Fatal(err)
	}
	chunked, chunkedH := solo(t, q, Options{})
	if _, err := commitChunks(chunked, stream, 7); err != nil {
		t.Fatal(err)
	}
	if wholeH.Count() != chunkedH.Count() || whole.Cardinality() != chunked.Cardinality() {
		t.Errorf("whole: count=%d |D|=%d; chunked: count=%d |D|=%d",
			wholeH.Count(), whole.Cardinality(), chunkedH.Count(), chunked.Cardinality())
	}
	if !sameTuples(wholeH.Tuples(), chunkedH.Tuples()) {
		t.Error("chunked result disagrees with single-batch result")
	}
}

// TestCommitNetShrinksWithBatchSize: with nested chunk boundaries
// (1, 8, 64, one batch), a larger chunk can only cancel more insert/delete
// pairs, so the net command count never grows with the batch size; at
// size 1 it is the number of updates that changed the database, and the
// final result is the same at every size.
func TestCommitNetShrinksWithBatchSize(t *testing.T) {
	q := cq.MustParse("Q(y) :- E(x,y), T(y)")
	stream := workload.RandomStream(rand.New(rand.NewSource(37)), q.Schema(), 6, 256, 0.4)
	db := dyndb.New()
	changed := 0
	for _, u := range stream {
		ok, err := db.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			changed++
		}
	}
	want := eval.Evaluate(q, db)
	for _, st := range []Strategy{StrategyCore, StrategyIVM} {
		t.Run(st.String(), func(t *testing.T) {
			prev := -1
			for _, size := range []int{1, 8, 64, len(stream)} {
				ws, h := solo(t, q, Options{Force: st})
				net, err := commitChunks(ws, stream, size)
				if err != nil {
					t.Fatalf("size %d: %v", size, err)
				}
				if size == 1 && net != changed {
					t.Fatalf("size 1: net %d, want %d changing updates", net, changed)
				}
				if prev >= 0 && net > prev {
					t.Fatalf("size %d: net %d exceeds the smaller size's %d", size, net, prev)
				}
				prev = net
				if got := h.Count(); got != uint64(want.Len()) || !sameTuples(h.Tuples(), want.Tuples()) {
					t.Fatalf("size %d: count %d, result disagrees with eval (oracle count %d)", size, got, want.Len())
				}
			}
		})
	}
}

// TestLoadRejectsMismatchedArity: Load of a database whose relations
// clash with the query schema must error on every backend, not panic at
// the next read.
func TestLoadRejectsMismatchedArity(t *testing.T) {
	db := dyndb.New()
	if _, err := db.Insert("E", 1); err != nil { // unary E, query wants binary
		t.Fatal(err)
	}
	for _, st := range []Strategy{StrategyCore, StrategyIVM} {
		// Q(x) :- E(x,y) is q-hierarchical, so forcing core is fine too.
		ws, h := solo(t, cq.MustParse("Q(x) :- E(x,y)"), Options{Force: st})
		if err := ws.Load(db); err == nil {
			t.Errorf("[%v]: mismatched-arity Load accepted", h.Strategy())
		}
	}
}
