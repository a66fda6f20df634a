package torture

import (
	"fmt"
	"strings"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/qtree"
	"dyncq/internal/workload"
	"dyncq/pkg/dyncq"
)

// This file holds the single-threaded half of the matrix: parse (text
// formats round-trip), eval (maintained results equal the naive oracle
// at every step), and error (every rejection is atomic and leaves the
// documented state behind).

// tortureSchema is the shared schema most scenarios run against; small
// domains make joins dense so result sets are non-trivial.
var tortureSchema = map[string]int{"E": 2, "S": 1, "T": 1}

// queryPool is the standard query pool: two core routes, the canonical
// non-q-hierarchical IVM route, and the star query forced onto IVM, so
// both strategies maintain one query side by side.
type namedQuery struct {
	name  string
	text  string
	force dyncq.Strategy
}

var queryPool = []namedQuery{
	{"star", "Q(y) :- E(x,y), T(y)", dyncq.StrategyAuto},         // core
	{"src", "Q(x) :- E(x,y)", dyncq.StrategyAuto},                // core
	{"hard", "Q(x,y) :- S(x), E(x,y), T(y)", dyncq.StrategyAuto}, // ivm
	{"star_ivm", "Q(y) :- E(x,y), T(y)", dyncq.StrategyIVM},
}

// buildWorkspace registers the first k pool queries (all of them when
// k <= 0) in a fresh workspace and mirrors them into the oracle.
func buildWorkspace(k int) (*dyncq.Workspace, *oracle, error) {
	ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{})
	o := newOracle()
	pool := queryPool
	if k > 0 && k < len(pool) {
		pool = pool[:k]
	}
	for _, nq := range pool {
		q := mustParse(nq.text)
		if _, err := ws.RegisterQuery(nq.name, q, dyncq.Options{Force: nq.force}); err != nil {
			return nil, nil, fmt.Errorf("register %s: %w", nq.name, err)
		}
		o.register(nq.name, q)
	}
	return ws, o, nil
}

// ---- parse ----

func parseScenarios() []Scenario {
	return []Scenario{
		{
			Category: "parse", Name: "update-roundtrip",
			Brief: "FormatUpdate -> ParseUpdate is the identity over generated streams",
			Run: func(seed int64) error {
				cfg := workload.TortureConfig{Seed: seed, Domain: 500, Updates: 2000, PDelete: 0.4, ZipfS: 1.3, ZipfV: 1}
				for i, u := range cfg.Stream(tortureSchema) {
					back, err := dyncq.ParseUpdate(dyncq.FormatUpdate(u))
					if err != nil {
						return fmt.Errorf("update %d (%s): %v", i, u, err)
					}
					if back.Op != u.Op || back.Rel != u.Rel || !equalTuple(back.Tuple, u.Tuple) {
						return fmt.Errorf("update %d: %s round-tripped to %s", i, u, back)
					}
				}
				return nil
			},
		},
		{
			Category: "parse", Name: "query-roundtrip",
			Brief: "query String -> Parse preserves text and classification",
			Run: func(seed int64) error {
				rng := rngFor(seed, "query-roundtrip")
				for i := 0; i < 200; i++ {
					q := workload.RandomQHierarchical(rng, workload.DefaultQHOptions())
					back, err := cq.Parse(q.String())
					if err != nil {
						return fmt.Errorf("query %d (%s): %v", i, q, err)
					}
					if back.String() != q.String() {
						return fmt.Errorf("query %d: %s reparsed to %s", i, q, back)
					}
					if a, b := qtree.Classify(q).QHierarchical, qtree.Classify(back).QHierarchical; a != b {
						return fmt.Errorf("query %d: classification changed across reparse (%v vs %v)", i, a, b)
					}
				}
				return nil
			},
		},
		{
			Category: "parse", Name: "stream-reader",
			Brief: "StreamReader reproduces a formatted stream with exact line numbers",
			Run: func(seed int64) error {
				cfg := workload.TortureConfig{Seed: seed, Domain: 60, Updates: 500, PDelete: 0.3}
				stream := cfg.Stream(tortureSchema)
				var b strings.Builder
				rng := rngFor(seed, "stream-noise")
				wantLines := make([]int, len(stream))
				line := 0
				for i, u := range stream {
					for rng.Intn(3) == 0 { // interleave comments and blanks
						if rng.Intn(2) == 0 {
							b.WriteString("# comment noise\n")
						} else {
							b.WriteString("\n")
						}
						line++
					}
					b.WriteString(dyncq.FormatUpdate(u))
					b.WriteString("\n")
					line++
					wantLines[i] = line
				}
				sr := dyncq.NewStreamReader(strings.NewReader(b.String()))
				for i, u := range stream {
					got, gotLine, err := sr.Next()
					if err != nil {
						return fmt.Errorf("update %d: %v", i, err)
					}
					if got.Op != u.Op || got.Rel != u.Rel || !equalTuple(got.Tuple, u.Tuple) {
						return fmt.Errorf("update %d: read %s, want %s", i, got, u)
					}
					if gotLine != wantLines[i] {
						return fmt.Errorf("update %d: reported line %d, want %d", i, gotLine, wantLines[i])
					}
				}
				if _, _, err := sr.Next(); err == nil {
					return fmt.Errorf("reader yielded an update past the end of the stream")
				}
				return nil
			},
		},
	}
}

// ---- eval ----

// applyChecked routes one chunk through the workspace and the oracle and
// runs the full comparison.
func applyChecked(ws *dyncq.Workspace, o *oracle, chunk []dyndb.Update, where string) error {
	if _, _, err := ws.Commit(chunk); err != nil {
		return fmt.Errorf("%s: %v", where, err)
	}
	o.apply(chunk)
	return o.check(ws, where)
}

func evalScenarios() []Scenario {
	return []Scenario{
		{
			Category: "eval", Name: "star-oracle",
			Brief: "core-routed star query equals the oracle after every batch",
			Run: func(seed int64) error {
				ws, o, err := buildWorkspace(2)
				if err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 40, Updates: 1500, PDelete: 0.35, ZipfS: 1.4, ZipfV: 1}
				return replayChecked(ws, o, cfg.Stream(tortureSchema), 50)
			},
		},
		{
			Category: "eval", Name: "mixed-strategies-oracle",
			Brief: "core and IVM backends agree with the oracle on one shared stream",
			Run: func(seed int64) error {
				ws, o, err := buildWorkspace(0)
				if err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 30, Updates: 1200, PDelete: 0.4, ZipfS: 1.5, ZipfV: 2}
				return replayChecked(ws, o, cfg.Stream(tortureSchema), 64)
			},
		},
		{
			Category: "eval", Name: "zipf-flap-oracle",
			Brief: "hot-tuple insert/delete flapping, applied one update at a time",
			Run: func(seed int64) error {
				ws, o, err := buildWorkspace(0)
				if err != nil {
					return err
				}
				// Tiny domain + high delete ratio: the same hot tuples flap
				// in and out, stressing delete paths and the arenas' free chains.
				cfg := workload.TortureConfig{Seed: seed, Domain: 6, Updates: 600, PDelete: 0.5, ZipfS: 2, ZipfV: 1}
				for i, u := range cfg.Stream(tortureSchema) {
					if _, _, err := ws.Commit([]dyndb.Update{u}); err != nil {
						return fmt.Errorf("update %d (%s): %v", i, u, err)
					}
					o.apply([]dyndb.Update{u})
					if i%25 == 0 {
						if err := o.check(ws, fmt.Sprintf("update %d", i)); err != nil {
							return err
						}
					}
				}
				return o.check(ws, "final")
			},
		},
		{
			Category: "eval", Name: "batch-vs-single",
			Brief: "batched and per-update application converge to identical state",
			Run: func(seed int64) error {
				single, o1, err := buildWorkspace(0)
				if err != nil {
					return err
				}
				batched, o2, err := buildWorkspace(0)
				if err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 25, Updates: 1000, PDelete: 0.4}
				stream := cfg.Stream(tortureSchema)
				for i, u := range stream {
					if _, _, err := single.Commit([]dyndb.Update{u}); err != nil {
						return fmt.Errorf("single update %d: %v", i, err)
					}
				}
				o1.apply(stream)
				if err := commitChunks(batched, stream, 128); err != nil {
					return fmt.Errorf("batched: %v", err)
				}
				o2.apply(stream)
				if err := o1.check(single, "single final"); err != nil {
					return err
				}
				if err := o2.check(batched, "batched final"); err != nil {
					return err
				}
				for _, nq := range queryPool {
					a, b := single.Handle(nq.name).Tuples(), batched.Handle(nq.name).Tuples()
					if err := sameTupleSet(a, b); err != nil {
						return fmt.Errorf("query %s: single vs batched: %w", nq.name, err)
					}
				}
				return nil
			},
		},
		{
			Category: "eval", Name: "undo-identity",
			Brief: "a batch followed by its exact inverse restores every backend's result set, count and invariants",
			Run: func(seed int64) error {
				// The pool covers core and ivm.
				ws, o, err := buildWorkspace(0)
				if err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 25, Updates: 1200, PDelete: 0.4, ZipfS: 1.3, ZipfV: 1}
				stream := cfg.Stream(tortureSchema)
				const chunk = 100
				for from := 0; from < len(stream); from += chunk {
					to := min(from+chunk, len(stream))
					batch := stream[from:to]
					where := fmt.Sprintf("batch %d..%d", from, to)
					pre := make(map[string][][]dyncq.Value)
					for _, h := range ws.Handles() {
						pre[h.Name()] = h.Tuples()
					}
					// The exact inverse: the batch's net delta against the
					// pre-state, reversed, every command flipped.
					net, err := o.db.NetDelta(batch)
					if err != nil {
						return fmt.Errorf("%s: net delta: %v", where, err)
					}
					undo := make([]dyndb.Update, len(net))
					for i, u := range net {
						if u.Op == dyndb.OpInsert {
							u.Op = dyndb.OpDelete
						} else {
							u.Op = dyndb.OpInsert
						}
						undo[len(net)-1-i] = u
					}
					if err := applyChecked(ws, o, batch, where); err != nil {
						return err
					}
					if err := applyChecked(ws, o, undo, where+" undone"); err != nil {
						return err
					}
					for _, h := range ws.Handles() {
						if got, want := h.Count(), uint64(len(pre[h.Name()])); got != want {
							return fmt.Errorf("%s undone: query %q count %d, pre-state %d", where, h.Name(), got, want)
						}
						if err := sameTupleSet(h.Tuples(), pre[h.Name()]); err != nil {
							return fmt.Errorf("%s undone: query %q vs pre-state: %w", where, h.Name(), err)
						}
					}
					// Redo, so the next round undoes against a new pre-state.
					if err := applyChecked(ws, o, batch, where+" redone"); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Category: "eval", Name: "native-delta",
			Brief: "every backend's own per-commit result delta equals the oracle's per-version diff, and Contains the oracle's membership",
			Run: func(seed int64) error {
				// All queries on one workspace, then each alone.
				pool := append(append([]namedQuery(nil), queryPool...), deltaShapes...)
				if err := nativeDelta(seed, pool); err != nil {
					return err
				}
				for i := range pool {
					if err := nativeDelta(seed, pool[i:i+1]); err != nil {
						return fmt.Errorf("%s alone: %w", pool[i].name, err)
					}
				}
				return nil
			},
		},
	}
}

// replayChecked applies the stream in chunks, checking the oracle after
// every chunk.
func replayChecked(ws *dyncq.Workspace, o *oracle, stream []dyndb.Update, chunk int) error {
	for from := 0; from < len(stream); from += chunk {
		to := from + chunk
		if to > len(stream) {
			to = len(stream)
		}
		if err := applyChecked(ws, o, stream[from:to], fmt.Sprintf("batch %d..%d", from, to)); err != nil {
			return err
		}
	}
	return nil
}

// commitChunks commits the stream in chunks of size updates, each chunk
// its own commit (readers may observe the state between chunks), stopping
// at the first error.
func commitChunks(ws *dyncq.Workspace, stream []dyndb.Update, size int) error {
	for from := 0; from < len(stream); from += size {
		if _, _, err := ws.Commit(stream[from:min(from+size, len(stream))]); err != nil {
			return fmt.Errorf("batch %d: %v", from, err)
		}
	}
	return nil
}

// ---- error ----

func errorScenarios() []Scenario {
	return []Scenario{
		{
			Category: "error", Name: "invalid-batch-atomic",
			Brief: "a bad command anywhere in a batch rejects it with zero state change",
			Run: func(seed int64) error {
				ws, o, err := buildWorkspace(0)
				if err != nil {
					return err
				}
				rng := rngFor(seed, "inject")
				cfg := workload.TortureConfig{Seed: seed, Domain: 30, Updates: 900, PDelete: 0.3, ZipfS: 1.3, ZipfV: 1}
				stream := cfg.Stream(tortureSchema)
				poison := []dyndb.Update{
					dyncq.Insert("E", 1),       // arity too small
					dyncq.Insert("T", 1, 2, 3), // arity too large
					dyncq.Delete("S", 7, 8),    // arity mismatch on delete
				}
				for from := 0; from < len(stream); from += 90 {
					to := from + 90
					if to > len(stream) {
						to = len(stream)
					}
					chunk := append([]dyndb.Update(nil), stream[from:to]...)
					// Inject one poison command at a random position: the
					// whole batch must be rejected atomically.
					bad := append([]dyndb.Update(nil), chunk...)
					at := rng.Intn(len(bad) + 1)
					bad = append(bad[:at], append([]dyndb.Update{poison[rng.Intn(len(poison))]}, bad[at:]...)...)
					versionBefore := ws.Version()
					if _, _, err := ws.Commit(bad); err == nil {
						return fmt.Errorf("batch %d: poisoned batch was accepted", from)
					}
					if ws.Version() != versionBefore {
						return fmt.Errorf("batch %d: rejected batch advanced the version", from)
					}
					if err := o.check(ws, fmt.Sprintf("after rejected batch %d", from)); err != nil {
						return err
					}
					// The clean batch must still apply on the same workspace.
					if err := applyChecked(ws, o, chunk, fmt.Sprintf("retry batch %d", from)); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Category: "error", Name: "failed-load-atomic",
			Brief: "a failed Load changes nothing and leaves a live pipeline behind",
			Run: func(seed int64) error {
				ws, o, err := buildWorkspace(0)
				if err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 30, Updates: 400, PDelete: 0.2}
				if err := replayChecked(ws, o, cfg.Stream(tortureSchema), 100); err != nil {
					return err
				}
				// A database whose E has the wrong arity: Load must fail and
				// change nothing — the oracle, which never sees it, still
				// matches, at the same version.
				bad := dyndb.New()
				if err := bad.EnsureRelation("E", 3); err != nil {
					return err
				}
				if _, err := bad.Insert("E", 1, 2, 3); err != nil {
					return err
				}
				versionBefore := ws.Version()
				if err := ws.Load(bad); err == nil {
					return fmt.Errorf("Load of arity-clashing database succeeded")
				}
				if ws.Version() != versionBefore {
					return fmt.Errorf("failed Load advanced version by %d, want 0", ws.Version()-versionBefore)
				}
				if err := o.check(ws, "after failed Load"); err != nil {
					return err
				}
				// The pipeline must still be live.
				cfg2 := workload.TortureConfig{Seed: seed + 1, Domain: 20, Updates: 300, PDelete: 0.3}
				return replayChecked(ws, o, cfg2.Stream(tortureSchema), 75)
			},
		},
		{
			Category: "error", Name: "malformed-stream",
			Brief: "malformed stream lines are rejected with line numbers; valid lines still apply",
			Run: func(seed int64) error {
				bad := []string{
					"+E(1,2) trailing",
					"++E(1,2)",
					"+-E(1,2)",
					"+E(1,",
					"+E(1,2",
					"+ (1,2)",
					"+E(a,2)", // int mode: strings rejected
					"+E()",
					"+E(1,,2)",
					"-",
				}
				for _, line := range bad {
					if u, err := dyncq.ParseUpdate(line); err == nil {
						return fmt.Errorf("malformed line %q parsed as %s", line, u)
					}
				}
				// A stream mixing good and bad lines: the reader must report
				// the bad line's number and keep going afterwards.
				text := "+E(1,2)\n# fine\n++T(1)\n+T(2)\n"
				sr := dyncq.NewStreamReader(strings.NewReader(text))
				if _, line, err := sr.Next(); err != nil || line != 1 {
					return fmt.Errorf("line 1: got line=%d err=%v", line, err)
				}
				_, badLine, err := sr.Next()
				if err == nil {
					return fmt.Errorf("malformed line 3 was accepted")
				}
				if badLine != 3 || !strings.Contains(err.Error(), "line 3") {
					return fmt.Errorf("error for line 3 does not name the line (line=%d): %v", badLine, err)
				}
				if u, line, err := sr.Next(); err != nil || line != 4 || u.Rel != "T" {
					return fmt.Errorf("line 4 after error: got %v line=%d err=%v", u, line, err)
				}
				return nil
			},
		},
	}
}
