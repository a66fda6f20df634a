package torture

import (
	"fmt"
	"sync"

	"dyncq/internal/dyndb"
	"dyncq/internal/workload"
	"dyncq/pkg/dyncq"
)

// This file holds the stateful half of the matrix: lifecycle (the
// workspace survives register/unregister churn and Load cycles),
// concurrency (readers race writers under -race), and fanout (results
// are independent of the worker count and store writes are independent
// of the number of registered queries).

// ---- lifecycle ----

func lifecycleScenarios() []Scenario {
	return []Scenario{
		{
			Category: "lifecycle", Name: "register-churn",
			Brief: "register/unregister churn interleaved with updates keeps every live query exact",
			Run: func(seed int64) error {
				ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{})
				o := newOracle()
				rng := rngFor(seed, "churn")
				plan := workload.ChurnPlan(rng, len(queryPool), 40, 0.55)
				cfg := workload.TortureConfig{Seed: seed, Domain: 25, Updates: 40 * 30, PDelete: 0.35, ZipfS: 1.3, ZipfV: 1}
				stream := cfg.Stream(tortureSchema)
				for i, ev := range plan {
					nq := queryPool[ev.Pool]
					if ev.Unregister {
						if !ws.Unregister(ev.Name) {
							return fmt.Errorf("event %d: Unregister(%s) found no query", i, ev.Name)
						}
						o.unregister(ev.Name)
					} else {
						if _, err := ws.RegisterQuery(ev.Name, mustParse(nq.text), dyncq.Options{Force: nq.force}); err != nil {
							return fmt.Errorf("event %d: register %s: %v", i, ev.Name, err)
						}
						o.register(ev.Name, mustParse(nq.text))
					}
					// A freshly registered query must already represent the
					// current database (preprocessing on registration).
					if err := o.check(ws, fmt.Sprintf("event %d (%s %s)", i, opName(ev), ev.Name)); err != nil {
						return err
					}
					chunk := stream[i*30 : (i+1)*30]
					if err := applyChecked(ws, o, chunk, fmt.Sprintf("after event %d", i)); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			Category: "lifecycle", Name: "load-cycles",
			Brief: "repeated Load cycles reset every query to exactly the loaded database",
			Run: func(seed int64) error {
				ws, o, err := buildWorkspace(dyncq.WorkspaceOptions{}, 0)
				if err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 30, Updates: 300, PDelete: 0.3}
				for cycle := 0; cycle < 4; cycle++ {
					db := workload.TortureConfig{Seed: seed + int64(cycle), Domain: 20, ZipfS: 1.2, ZipfV: 1}.Database(tortureSchema, 150)
					versionBefore := ws.Version()
					if err := ws.Load(db); err != nil {
						return fmt.Errorf("cycle %d: Load: %v", cycle, err)
					}
					if ws.Version() != versionBefore+1 {
						return fmt.Errorf("cycle %d: Load advanced version by %d, want 1", cycle, ws.Version()-versionBefore)
					}
					o.load(db)
					if err := o.check(ws, fmt.Sprintf("cycle %d after Load", cycle)); err != nil {
						return err
					}
					if err := replayChecked(ws, o, cfg.Stream(tortureSchema), 75); err != nil {
						return fmt.Errorf("cycle %d: %w", cycle, err)
					}
				}
				return nil
			},
		},
		{
			Category: "lifecycle", Name: "version-lockstep",
			Brief: "versions advance exactly once per effective commit; no-op batches do not advance",
			Run: func(seed int64) error {
				ws, o, err := buildWorkspace(dyncq.WorkspaceOptions{}, 0)
				if err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 20, Updates: 800, PDelete: 0.4}
				stream := cfg.Stream(tortureSchema)
				for from := 0; from < len(stream); from += 40 {
					to := from + 40
					if to > len(stream) {
						to = len(stream)
					}
					chunk := stream[from:to]
					versionBefore := ws.Version()
					applied, err := ws.ApplyBatch(chunk)
					if err != nil {
						return fmt.Errorf("batch %d: %v", from, err)
					}
					delta := ws.Version() - versionBefore
					if applied > 0 && delta != 1 {
						return fmt.Errorf("batch %d: %d effective commands advanced version by %d, want 1", from, applied, delta)
					}
					if applied == 0 && delta != 0 {
						return fmt.Errorf("batch %d: no-op batch advanced version by %d", from, delta)
					}
					// Replaying the very same chunk must be a pure no-op
					// under set semantics... except deletions of tuples the
					// first application removed stay no-ops and insertions it
					// added are now present — so the coalesced net effect of
					// an idempotent replay is empty only for insert-only
					// chunks. Instead assert the cheap universal invariant:
					// every handle reports the workspace version.
					for _, h := range ws.Handles() {
						if h.Version() != ws.Version() {
							return fmt.Errorf("batch %d: handle %s at version %d, workspace at %d", from, h.Name(), h.Version(), ws.Version())
						}
					}
					o.apply(chunk)
					if err := o.check(ws, fmt.Sprintf("batch %d", from)); err != nil {
						return err
					}
				}
				// An explicitly empty batch and a pure no-op batch: neither
				// advances anything.
				for name, noop := range map[string][]dyndb.Update{
					"empty batch": {},
					"no-op batch": {dyncq.Delete("E", -1, -1), dyncq.Delete("T", -9)},
				} {
					versionBefore, mutsBefore := ws.Version(), ws.StoreMutations()
					if _, err := ws.ApplyBatch(noop); err != nil {
						return fmt.Errorf("%s: %v", name, err)
					}
					if ws.Version() != versionBefore {
						return fmt.Errorf("%s advanced the version", name)
					}
					if ws.StoreMutations() != mutsBefore {
						return fmt.Errorf("%s mutated the store", name)
					}
				}
				return o.check(ws, "final")
			},
		},
	}
}

func opName(ev workload.ChurnEvent) string {
	if ev.Unregister {
		return "unregister"
	}
	return "register"
}

// ---- concurrency ----

// The concurrency scenarios exist to give the race detector material:
// their correctness checks are deterministic in the seed, but the
// interleavings they provoke are scheduled by the runtime. Each runs
// writers against concurrent readers and fails on any torn read a
// snapshot should have made impossible.

func concurrencyScenarios() []Scenario {
	return []Scenario{
		{
			Category: "concurrency", Name: "view-readers",
			Brief: "View snapshots stay internally consistent while batches commit",
			Run: func(seed int64) error {
				ws, _, err := buildWorkspace(dyncq.WorkspaceOptions{Workers: 4}, 0)
				if err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 30, Updates: 3000, PDelete: 0.35, ZipfS: 1.3, ZipfV: 1}
				stream := cfg.Stream(tortureSchema)
				stop := make(chan struct{})
				errs := make(chan error, 8)
				var wg sync.WaitGroup
				for r := 0; r < 4; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							ws.View(func(v *dyncq.WorkspaceView) {
								// Within one view: Count, Answer, and the
								// enumerated set must describe one state.
								for _, nq := range queryPool {
									count := v.Count(nq.name)
									if v.Answer(nq.name) != (count > 0) {
										errs <- fmt.Errorf("view: query %s answer disagrees with count %d", nq.name, count)
										return
									}
									if got := uint64(len(v.Tuples(nq.name))); got != count {
										errs <- fmt.Errorf("view: query %s enumerated %d tuples, count says %d", nq.name, got, count)
										return
									}
								}
								if before, after := v.Version(), v.Version(); before != after {
									errs <- fmt.Errorf("view: version moved %d -> %d inside one view", before, after)
								}
							})
						}
					}()
				}
				var applyErr error
				for from := 0; from < len(stream) && applyErr == nil; from += 100 {
					to := from + 100
					if to > len(stream) {
						to = len(stream)
					}
					if _, err := ws.ApplyBatch(stream[from:to]); err != nil {
						applyErr = fmt.Errorf("batch %d: %v", from, err)
					}
				}
				close(stop)
				wg.Wait()
				close(errs)
				if applyErr != nil {
					return applyErr
				}
				for err := range errs {
					if err != nil {
						return err
					}
				}
				return ws.CheckInvariants()
			},
		},
		{
			Category: "concurrency", Name: "churn-under-load",
			Brief: "register/unregister races batch application without corrupting either",
			Run: func(seed int64) error {
				ws, _, err := buildWorkspace(dyncq.WorkspaceOptions{Workers: 2}, 2)
				if err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 25, Updates: 2000, PDelete: 0.35, ZipfS: 1.4, ZipfV: 1}
				stream := cfg.Stream(tortureSchema)
				errs := make(chan error, 2)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Churn the second half of the pool (the first half stays
					// registered so the writer always fans out to >= 2 queries).
					for round := 0; round < 30; round++ {
						for _, nq := range queryPool[2:] {
							name := fmt.Sprintf("%s-churn", nq.name)
							if _, err := ws.RegisterQuery(name, mustParse(nq.text), dyncq.Options{Force: nq.force}); err != nil {
								errs <- fmt.Errorf("churn round %d: register %s: %v", round, name, err)
								return
							}
							// The freshly registered handle must answer for
							// some committed state without tearing. Answer and
							// Count are two separately locked reads, so the pair
							// only counts when no commit landed between them.
							h := ws.Handle(name)
							for {
								v := ws.Version()
								got, n := h.Answer(), h.Count()
								if ws.Version() != v {
									continue
								}
								if got != (n > 0) {
									errs <- fmt.Errorf("churn round %d: %s answer/count torn (%v vs %d)", round, name, got, n)
									return
								}
								break
							}
						}
						for _, nq := range queryPool[2:] {
							name := fmt.Sprintf("%s-churn", nq.name)
							if !ws.Unregister(name) {
								errs <- fmt.Errorf("churn round %d: %s vanished", round, name)
								return
							}
						}
					}
				}()
				var applyErr error
				for from := 0; from < len(stream) && applyErr == nil; from += 50 {
					to := from + 50
					if to > len(stream) {
						to = len(stream)
					}
					if _, err := ws.ApplyBatch(stream[from:to]); err != nil {
						applyErr = fmt.Errorf("batch %d: %v", from, err)
					}
				}
				wg.Wait()
				close(errs)
				if applyErr != nil {
					return applyErr
				}
				for err := range errs {
					if err != nil {
						return err
					}
				}
				// Settle: the survivors must equal a from-scratch oracle.
				o := newOracle()
				for _, nq := range queryPool[:2] {
					o.register(nq.name, mustParse(nq.text))
				}
				o.apply(stream)
				return o.check(ws, "after churn settles")
			},
		},
		{
			Category: "concurrency", Name: "handle-readers",
			Brief: "latest-state handle reads race parallel fan-out without tearing",
			Run: func(seed int64) error {
				ws, _, err := buildWorkspace(dyncq.WorkspaceOptions{Workers: 4}, 0)
				if err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 30, Updates: 2500, PDelete: 0.4, ZipfS: 1.3, ZipfV: 1}
				stream := cfg.Stream(tortureSchema)
				stop := make(chan struct{})
				errs := make(chan error, 8)
				var wg sync.WaitGroup
				for _, nq := range queryPool {
					wg.Add(1)
					go func(name string) {
						defer wg.Done()
						h := ws.Handle(name)
						for {
							select {
							case <-stop:
								return
							default:
							}
							// Each individual read must be internally sane;
							// Count/Enumerate agreement across two calls is
							// View's job, not Handle's.
							n := 0
							h.Enumerate(func(tuple []dyncq.Value) bool {
								if len(tuple) == 0 {
									errs <- fmt.Errorf("query %s enumerated an empty tuple", name)
									return false
								}
								n++
								return n < 1<<16
							})
							_ = h.Answer()
							_ = h.Count()
							_ = h.Cardinality()
						}
					}(nq.name)
				}
				var applyErr error
				for from := 0; from < len(stream) && applyErr == nil; from += 64 {
					to := from + 64
					if to > len(stream) {
						to = len(stream)
					}
					if _, err := ws.ApplyBatch(stream[from:to]); err != nil {
						applyErr = fmt.Errorf("batch %d: %v", from, err)
					}
				}
				close(stop)
				wg.Wait()
				close(errs)
				if applyErr != nil {
					return applyErr
				}
				for err := range errs {
					if err != nil {
						return err
					}
				}
				o := newOracle()
				for _, nq := range queryPool {
					o.register(nq.name, mustParse(nq.text))
				}
				o.apply(stream)
				return o.check(ws, "after readers drain")
			},
		},
	}
}

// ---- fanout ----

// wideQueryPool returns k named queries cycling through the standard
// pool — the K>=64 fan-out population. Core queries pin Shards so the
// canonical enumeration order is identical whatever the worker count.
func wideQueryPool(k int) []namedQuery {
	out := make([]namedQuery, k)
	for i := range out {
		base := queryPool[i%len(queryPool)]
		out[i] = namedQuery{name: fmt.Sprintf("q%03d-%s", i, base.name), text: base.text, force: base.force}
	}
	return out
}

func registerWide(ws *dyncq.Workspace, pool []namedQuery, shards int) error {
	for _, nq := range pool {
		if _, err := ws.RegisterQuery(nq.name, mustParse(nq.text), dyncq.Options{Force: nq.force, Shards: shards}); err != nil {
			return fmt.Errorf("register %s: %w", nq.name, err)
		}
	}
	return nil
}

// workerIdentical builds the pool over db (nil: empty) at 1, 2 and 4
// workers, replays the stream in batches of batch, and demands identical
// results and clean invariants; it returns the workers=1 workspace. Same
// store shards and same core engine shards everywhere: only the worker
// count varies, so any divergence is a scheduling bug, not a layout
// difference.
func workerIdentical(pool []namedQuery, db *dyndb.Database, stream []dyndb.Update, batch int) (*dyncq.Workspace, error) {
	build := func(workers int) (*dyncq.Workspace, error) {
		ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{Workers: workers, StoreShards: 8})
		if err := registerWide(ws, pool, 4); err != nil {
			return nil, err
		}
		if db != nil {
			if err := ws.Load(db); err != nil {
				return nil, err
			}
		}
		_, err := ws.ApplyBatched(stream, batch)
		return ws, err
	}
	solo, err := build(1)
	if err != nil {
		return nil, fmt.Errorf("workers=1: %v", err)
	}
	for _, workers := range []int{2, 4} {
		par, err := build(workers)
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %v", workers, err)
		}
		for _, nq := range pool {
			a, b := solo.Handle(nq.name).Tuples(), par.Handle(nq.name).Tuples()
			if solo.Handle(nq.name).Strategy() == dyncq.StrategyCore {
				// Core order is canonical for a fixed shard count: demand
				// byte-identical enumeration, not just set equality.
				if err := sameTupleSeq(a, b); err != nil {
					return nil, fmt.Errorf("workers=%d: query %s order diverged: %w", workers, nq.name, err)
				}
			} else if err := sameTupleSet(a, b); err != nil {
				return nil, fmt.Errorf("workers=%d: query %s: %w", workers, nq.name, err)
			}
		}
		if err := par.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("workers=%d: %v", workers, err)
		}
	}
	return solo, solo.CheckInvariants()
}

func fanoutScenarios() []Scenario {
	return []Scenario{
		{
			Category: "fanout", Name: "k64-worker-identical",
			Brief: "64 live queries: results are byte-identical across worker counts",
			Run: func(seed int64) error {
				cfg := workload.TortureConfig{Seed: seed, Domain: 40, Updates: 1200, PDelete: 0.35, ZipfS: 1.3, ZipfV: 1}
				_, err := workerIdentical(wideQueryPool(64), nil, cfg.Stream(tortureSchema), 150)
				return err
			},
		},
		{
			Category: "fanout", Name: "store-writes-independent-of-k",
			Brief: "store mutations and index rebuilds are independent of the number of live queries",
			Run: func(seed int64) error {
				cfg := workload.TortureConfig{Seed: seed, Domain: 35, Updates: 1000, PDelete: 0.35, ZipfS: 1.2, ZipfV: 1}
				stream := cfg.Stream(tortureSchema)
				run := func(k int) (*dyncq.Workspace, error) {
					ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{})
					if err := registerWide(ws, wideQueryPool(k), 0); err != nil {
						return nil, err
					}
					_, err := ws.ApplyBatched(stream, 125)
					return ws, err
				}
				narrow, err := run(1)
				if err != nil {
					return fmt.Errorf("k=1: %v", err)
				}
				wide, err := run(64)
				if err != nil {
					return fmt.Errorf("k=64: %v", err)
				}
				if a, b := narrow.StoreMutations(), wide.StoreMutations(); a != b {
					return fmt.Errorf("store mutations depend on K: %d with one query, %d with 64", a, b)
				}
				for name, ws := range map[string]*dyncq.Workspace{"k=1": narrow, "k=64": wide} {
					if err := ws.CheckInvariants(); err != nil {
						return fmt.Errorf("%s: %v", name, err)
					}
				}
				return nil
			},
		},
		{
			Category: "fanout", Name: "arena-chunks-worker-identical",
			Brief: "core arenas of several chunks under delete-heavy churn: results are byte-identical across worker counts and equal the oracle",
			Run: func(seed int64) error {
				// Every other fan-out check stays inside one 1,024-record
				// arena chunk; this one loads enough to span several. The
				// database draws uniformly from 1..400 across E, S and T; S
				// and T saturate at 400 tuples each, so ≈ 23,200 of the
				// 24,000 tuples are E. The star query's leaf node x holds one
				// record per E tuple, in the shard its y hashes to: 400 y
				// values over 4 shards put ≈ 5,700 records into each leaf
				// arena, and refs 1..n fill ⌊n/1024⌋+1 chunks — at least
				// 4 from n = 3,072 on.
				db := workload.TortureConfig{Seed: seed, Domain: 400}.Database(tortureSchema, 24000)
				if n := db.Relation("E").Len(); n < 4*4*1024 {
					return fmt.Errorf("loaded %d E tuples, want at least %d for 4 chunks in each of 4 shards", n, 4*4*1024)
				}
				// The Zipf stream's deletions free records well past the
				// first chunk, and its insertions take them back off the
				// free chains.
				cfg := workload.TortureConfig{Seed: seed, Domain: 400, Updates: 3000, PDelete: 0.4, ZipfS: 1.3, ZipfV: 1}
				stream := cfg.Stream(tortureSchema)
				solo, err := workerIdentical(queryPool, db, stream, 150)
				if err != nil {
					return err
				}
				// Worker identity cannot see a corruption every worker
				// count shares; the oracle can.
				o := newOracle()
				for _, nq := range queryPool {
					o.register(nq.name, mustParse(nq.text))
				}
				o.load(db)
				o.apply(stream)
				return o.check(solo, "end of stream")
			},
		},
		{
			Category: "fanout", Name: "view-during-parallel-fanout",
			Brief: "views pinned during parallel fan-out stay on one committed version",
			Run: func(seed int64) error {
				const k = 64
				ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{Workers: 4})
				if err := registerWide(ws, wideQueryPool(k), 0); err != nil {
					return err
				}
				cfg := workload.TortureConfig{Seed: seed, Domain: 30, Updates: 2000, PDelete: 0.4, ZipfS: 1.4, ZipfV: 1}
				stream := cfg.Stream(tortureSchema)
				stop := make(chan struct{})
				errs := make(chan error, 4)
				var wg sync.WaitGroup
				for r := 0; r < 2; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						names := []string{"q000-star", "q002-hard", "q003-star-ivm"}
						for {
							select {
							case <-stop:
								return
							default:
							}
							ws.View(func(v *dyncq.WorkspaceView) {
								version := v.Version()
								card := v.Cardinality()
								for _, name := range names {
									if got := uint64(len(v.Tuples(name))); got != v.Count(name) {
										errs <- fmt.Errorf("view at version %d: query %s tuples/count torn", version, name)
										return
									}
								}
								if v.Version() != version || v.Cardinality() != card {
									errs <- fmt.Errorf("view state moved: version %d -> %d", version, v.Version())
								}
							})
						}
					}()
				}
				var applyErr error
				for from := 0; from < len(stream) && applyErr == nil; from += 80 {
					to := from + 80
					if to > len(stream) {
						to = len(stream)
					}
					if _, err := ws.ApplyBatch(stream[from:to]); err != nil {
						applyErr = fmt.Errorf("batch %d: %v", from, err)
					}
				}
				close(stop)
				wg.Wait()
				close(errs)
				if applyErr != nil {
					return applyErr
				}
				for err := range errs {
					if err != nil {
						return err
					}
				}
				return ws.CheckInvariants()
			},
		},
	}
}

// sameTupleSeq demands exact, order-sensitive equality — the contract
// core enumeration gives for a fixed shard count.
func sameTupleSeq(got, want [][]dyncq.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if !equalTuple(got[i], want[i]) {
			return fmt.Errorf("position %d: %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
