package torture

import (
	"fmt"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
	"dyncq/pkg/dyncq"
)

// This file holds eval/native-delta: every backend's own result delta,
// captured at every version, against the per-version diff of the naive
// oracle's results — and the constant-time test (Handle.Contains) against
// the same oracle in the same pass.

// deltaShapes are the shapes the native delta is hardest on, beyond the
// standard pool: a Boolean-gated query, a product of two components, a
// branching self-join (the second occurrence's pinned states skip a
// sibling subtree), a repeated-variable self-join, and the branching
// self-join again on IVM, where inclusion–exclusion takes multiplicities
// through transient zeros.
var deltaShapes = []namedQuery{
	{"gated", "Q(x) :- S(x), T(y)", dyncq.StrategyAuto},
	{"product", "Q(x,y) :- S(x), T(y)", dyncq.StrategyAuto},
	{"fork", "Q(x,y,z) :- E(x,y), E(x,z)", dyncq.StrategyAuto},
	{"loop", "Q(x,y) :- E(x,y), E(x,x)", dyncq.StrategyAuto},
	{"fork-ivm", "Q(x,y,z) :- E(x,y), E(x,z)", dyncq.StrategyIVM},
}

// deltaWatch follows one captured query: the events its hook received
// and the oracle's result at the last checked version.
type deltaWatch struct {
	name   string
	q      *cq.Query
	h      *dyncq.Handle
	events []dyncq.DeltaEvent // appended by the hook, inside the commit
	seen   int                // events already checked
	prev   *eval.Result
}

// check compares the events delivered since the last check with the
// oracle: one event per version in (from, to], the one reaching `to`
// carrying exactly the oracle's before/after difference (every commit in
// this scenario advances the version by at most one), and Contains
// agreeing with the oracle on every member and on sampled non-members.
func (dw *deltaWatch) check(o *oracle, from, to uint64, domain int, where string) error {
	fresh := dw.events[dw.seen:]
	dw.seen = len(dw.events)
	if uint64(len(fresh)) != to-from {
		return fmt.Errorf("%s: query %q got %d events over versions (%d, %d]", where, dw.name, len(fresh), from, to)
	}
	now := eval.Evaluate(dw.q, o.db)
	members := now.Tuples()
	var added, removed [][]dyncq.Value
	for _, t := range members {
		if !dw.prev.Has(t) {
			added = append(added, t)
		}
	}
	for _, t := range dw.prev.Tuples() {
		if !now.Has(t) {
			removed = append(removed, t)
		}
	}
	dw.prev = now
	if len(fresh) == 0 {
		if len(added)+len(removed) != 0 {
			return fmt.Errorf("%s: query %q: the oracle's result moved (+%d −%d) without a version", where, dw.name, len(added), len(removed))
		}
	} else {
		ev := fresh[len(fresh)-1]
		if ev.Version != to || ev.Query != dw.name {
			return fmt.Errorf("%s: query %q: event for %q at version %d, want version %d", where, dw.name, ev.Query, ev.Version, to)
		}
		if err := sameTupleList(ev.Added, added); err != nil {
			return fmt.Errorf("%s: query %q (%s) version %d added: %w", where, dw.name, dw.h.Strategy(), to, err)
		}
		if err := sameTupleList(ev.Removed, removed); err != nil {
			return fmt.Errorf("%s: query %q (%s) version %d removed: %w", where, dw.name, dw.h.Strategy(), to, err)
		}
	}
	for _, t := range members {
		if !dw.h.Contains(t) {
			return fmt.Errorf("%s: query %q: Contains(%v) = false for an oracle tuple", where, dw.name, t)
		}
	}
	// Near misses: every removed tuple, and every seventh member with one
	// position moved to another domain value.
	for _, t := range removed {
		if dw.h.Contains(t) {
			return fmt.Errorf("%s: query %q: Contains(%v) = true for a tuple the commit removed", where, dw.name, t)
		}
	}
	for i, t := range members {
		if len(t) == 0 || i%7 != 0 {
			continue
		}
		miss := append([]dyncq.Value(nil), t...)
		miss[i%len(t)] = dyncq.Value(1 + (i/7)%(domain+1))
		if got, want := dw.h.Contains(miss), now.Has(miss); got != want {
			return fmt.Errorf("%s: query %q: Contains(%v) = %v, oracle %v", where, dw.name, miss, got, want)
		}
	}
	if dw.h.Contains(make([]dyncq.Value, dw.q.Arity()+1)) {
		return fmt.Errorf("%s: query %q: Contains accepted a tuple of the wrong arity", where, dw.name)
	}
	return nil
}

// sameTupleList compares two tuple lists in order: DeltaEvent sides
// arrive lexicographically sorted, as eval.Result.Tuples does.
func sameTupleList(got, want [][]dyncq.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples %v, oracle has %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if !equalTuple(got[i], want[i]) {
			return fmt.Errorf("tuple %d is %v, oracle has %v", i, got[i], want[i])
		}
	}
	return nil
}

// nativeDelta runs the scenario at one worker count.
func nativeDelta(seed int64, workers int) error {
	const domain = 7
	ws, o, err := buildWorkspace(dyncq.WorkspaceOptions{Workers: workers}, 0)
	if err != nil {
		return err
	}
	// The pool covers core and ivm at the workspace's default shard count;
	// star and every extra shape also run at 1 and 4 shards.
	sharded := append([]namedQuery{queryPool[0]}, deltaShapes...)
	for _, nq := range sharded {
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("%s%d", nq.name, shards)
			q := mustParse(nq.text)
			if _, err := ws.RegisterQuery(name, q, dyncq.Options{Force: nq.force, Shards: shards}); err != nil {
				return fmt.Errorf("register %s: %w", name, err)
			}
			o.register(name, q)
			if nq.force != dyncq.StrategyAuto {
				break // shards only mean something to core
			}
		}
	}
	var watches []*deltaWatch
	for _, h := range ws.Handles() {
		dw := &deltaWatch{name: h.Name(), q: o.queries[h.Name()], h: h}
		dw.prev = eval.Evaluate(dw.q, o.db)
		if err := ws.CaptureDeltas(dw.name, func(ev dyncq.DeltaEvent) { dw.events = append(dw.events, ev) }); err != nil {
			return err
		}
		watches = append(watches, dw)
	}
	// commit runs one workspace write and its oracle mirror, then checks
	// every query's events and the full oracle comparison.
	commit := func(where string, write func() error, mirror func()) error {
		from := ws.Version()
		if err := write(); err != nil {
			return fmt.Errorf("%s: %v", where, err)
		}
		mirror()
		to := ws.Version()
		for _, dw := range watches {
			if err := dw.check(o, from, to, domain, where); err != nil {
				return err
			}
		}
		return o.check(ws, where)
	}
	batch := func(where string, chunk []dyndb.Update) error {
		return commit(where,
			func() error { _, err := ws.ApplyBatch(chunk); return err },
			func() { o.apply(chunk) })
	}

	cfg := workload.TortureConfig{Seed: seed, Domain: domain, Updates: 420, PDelete: 0.45, ZipfS: 1.3, ZipfV: 1}
	stream := cfg.Stream(tortureSchema)
	split := len(stream) * 2 / 3
	for from := 0; from < split; from += 24 {
		to := min(from+24, split)
		if err := batch(fmt.Sprintf("workers %d batch %d..%d", workers, from, to), stream[from:to]); err != nil {
			return err
		}
	}
	for i, u := range stream[split:] {
		where := fmt.Sprintf("workers %d update %d (%s)", workers, split+i, u)
		err := commit(where,
			func() error { _, err := ws.Apply(u); return err },
			func() { o.apply([]dyndb.Update{u}) })
		if err != nil {
			return err
		}
	}
	// A Load replaces everything; a failed Load leaves the empty database.
	// Both advance the version once and owe every capture one event.
	db := workload.TortureConfig{Seed: seed + 1, Domain: domain, ZipfS: 1.3, ZipfV: 1}.Database(tortureSchema, 60)
	if err := commit(fmt.Sprintf("workers %d load", workers), func() error { return ws.Load(db) }, func() { o.load(db) }); err != nil {
		return err
	}
	bad := dyndb.New()
	if _, err := bad.Insert("E", 1, 2, 3); err != nil {
		return err
	}
	err = commit(fmt.Sprintf("workers %d failed load", workers),
		func() error {
			if ws.Load(bad) == nil {
				return fmt.Errorf("Load of an arity-clashing database succeeded")
			}
			return nil
		},
		o.clear)
	if err != nil {
		return err
	}
	// The pipeline is live again, refilling from empty.
	refill := workload.TortureConfig{Seed: seed + 2, Domain: domain, Updates: 90, PDelete: 0.2}.Stream(tortureSchema)
	for from := 0; from < len(refill); from += 30 {
		to := min(from+30, len(refill))
		if err := batch(fmt.Sprintf("workers %d refill %d..%d", workers, from, to), refill[from:to]); err != nil {
			return err
		}
	}
	return nil
}
