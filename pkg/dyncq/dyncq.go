// Package dyncq is the front door of the repository: a workspace layer
// in which ONE shared dynamic database serves any number of registered
// live queries over a common update stream (Workspace / Handle), each
// query classified via internal/qtree and routed to the best
// maintenance strategy the theory allows:
//
//   - q-hierarchical queries go to internal/core.Engine, the paper's
//     Section 6 structure with O(1) update time, O(1) counting and
//     constant-delay enumeration (Theorem 3.2);
//   - everything else falls back to internal/ivm.Maintainer, the
//     counting-based incremental view maintenance baseline whose update
//     cost is a residual join. Theorems 3.3–3.5 (conditional on OMv/OV)
//     say no strategy does fundamentally better on part of these queries
//     only: for enumeration, the self-join-free ones (3.3); for answering
//     emptiness, those whose Boolean version's core is not q-hierarchical
//     (3.4); for counting, those whose own core is not q-hierarchical
//     (3.5). A query whose core is q-hierarchical, such as
//     Q(x) :- E(x,y), E(z,y), is outside them, but routing does not look
//     at the core.
//
// internal/eval, the static evaluator, is the correctness oracle both
// strategies are tested against.
//
// Every batch is coalesced once, applied to the shared store once, and
// the net delta fanned out to every registered query's maintenance
// structure — the store mutation count is independent of how many
// queries are live. All strategies expose one uniform read API: Count,
// Answer, Contains, Enumerate, Tuples; Strategy() and Classification()
// let callers introspect the routing decision. A Workspace is safe for
// concurrent use; it is the only front door — a single query is a
// workspace with one registration.
package dyncq

import (
	"fmt"

	"dyncq/internal/dyndb"
)

// Value is a database constant.
type Value = dyndb.Value

// Update is a single-tuple update command.
type Update = dyndb.Update

// Op distinguishes the two update commands.
type Op = dyndb.Op

// The two update commands.
const (
	OpInsert = dyndb.OpInsert
	OpDelete = dyndb.OpDelete
)

// Database is a dynamic set-semantics database, the argument of
// Workspace.Load. Build one with NewDatabase; internal/dyndb is not
// importable from outside the module.
type Database = dyndb.Database

// NewDatabase returns an empty database.
func NewDatabase() *Database { return dyndb.New() }

// Insert returns an insertion command for the given tuple.
func Insert(rel string, tuple ...Value) Update { return dyndb.Insert(rel, tuple...) }

// Delete returns a deletion command for the given tuple.
func Delete(rel string, tuple ...Value) Update { return dyndb.Delete(rel, tuple...) }

// Strategy identifies the maintenance backend serving a query.
type Strategy int

const (
	// StrategyAuto (the zero value) lets RegisterQuery pick the best
	// backend from the query classification. Handle.Strategy never
	// returns it.
	StrategyAuto Strategy = iota
	// StrategyCore is the paper's dynamic structure (internal/core):
	// O(1) updates, O(1) count, constant-delay enumeration. Requires a
	// q-hierarchical query.
	StrategyCore
	// StrategyIVM is counting-based incremental view maintenance
	// (internal/ivm): any CQ, updates cost a residual join.
	StrategyIVM
)

// String returns the strategy name used by the CLI and benchmark output.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyCore:
		return "core"
	case StrategyIVM:
		return "ivm"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy converts a CLI name ("auto", "core", "ivm") to a
// Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "auto":
		return StrategyAuto, nil
	case "core":
		return StrategyCore, nil
	case "ivm":
		return StrategyIVM, nil
	default:
		return StrategyAuto, fmt.Errorf("unknown strategy %q (want auto, core or ivm)", name)
	}
}

// Options configures per-query construction (Workspace.RegisterQuery).
type Options struct {
	// Force pins the backend instead of routing by classification.
	// StrategyAuto (the zero value) means: classify and choose. Forcing
	// StrategyCore on a non-q-hierarchical query fails with
	// core.ErrNotQHierarchical.
	Force Strategy
}
