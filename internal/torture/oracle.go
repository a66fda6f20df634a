package torture

import (
	"fmt"
	"sort"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/pkg/dyncq"
)

// oracle is the naive reference implementation every eval-class scenario
// checks the engine against: a plain, unindexed database plus
// brute-force eval.Evaluate answers. It shares no code with the
// maintenance structures under test (core item trees, IVM delta joins,
// the shared index pool), so agreement means the clever paths compute
// the semantics, not that two copies of one bug agree.
type oracle struct {
	db      *dyndb.Database
	queries map[string]*cq.Query
}

func newOracle() *oracle {
	return &oracle{db: dyndb.New(), queries: make(map[string]*cq.Query)}
}

func (o *oracle) register(name string, q *cq.Query) { o.queries[name] = q }
func (o *oracle) unregister(name string)            { delete(o.queries, name) }

// apply mirrors one committed workspace batch: set semantics, no-ops
// ignored. Callers only invoke it after the workspace accepted the same
// updates, so errors here mean the harness itself is broken.
func (o *oracle) apply(updates []dyndb.Update) {
	for _, u := range updates {
		if _, err := o.db.Apply(u); err != nil {
			panic(fmt.Sprintf("torture oracle: %s: %v", u, err))
		}
	}
}

// load mirrors Workspace.Load: the oracle database becomes a copy of db.
func (o *oracle) load(db *dyndb.Database) {
	o.db = db.Clone()
}

// check compares every registered query's result in the workspace
// against the oracle's brute-force evaluation — count, answer bit, and
// the full result set — and then runs the workspace's own invariant
// sweep. where labels the step for failure messages.
func (o *oracle) check(ws *dyncq.Workspace, where string) error {
	for name, q := range o.queries {
		h := ws.Handle(name)
		if h == nil {
			return fmt.Errorf("%s: query %q registered in oracle but not in workspace", where, name)
		}
		want := eval.Evaluate(q, o.db)
		if got := h.Count(); got != uint64(want.Len()) {
			return fmt.Errorf("%s: query %q count %d, oracle %d", where, name, got, want.Len())
		}
		if got := h.Answer(); got != (want.Len() > 0) {
			return fmt.Errorf("%s: query %q answer %v, oracle %v", where, name, got, want.Len() > 0)
		}
		got := h.Tuples()
		if err := sameTupleSet(got, want.Tuples()); err != nil {
			return fmt.Errorf("%s: query %q result: %w", where, name, err)
		}
	}
	if got, want := ws.Cardinality(), o.db.Cardinality(); got != want {
		return fmt.Errorf("%s: store cardinality %d, oracle %d", where, got, want)
	}
	if err := ws.CheckInvariants(); err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	return nil
}

// sameTupleSet compares two results as sets (enumeration order is only
// specified for the core backend, and only relative to itself).
func sameTupleSet(got, want [][]dyncq.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, oracle has %d", len(got), len(want))
	}
	g := append([][]dyncq.Value(nil), got...)
	w := append([][]dyncq.Value(nil), want...)
	sortTuples(g)
	sortTuples(w)
	for i := range g {
		if !equalTuple(g[i], w[i]) {
			return fmt.Errorf("tuple %v, oracle has %v (both sorted)", g[i], w[i])
		}
	}
	return nil
}

func sortTuples(ts [][]dyncq.Value) {
	sort.Slice(ts, func(i, j int) bool { return lessTuple(ts[i], ts[j]) })
}

func lessTuple(a, b []dyncq.Value) bool {
	for k := range a {
		if k >= len(b) {
			return false
		}
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}

func equalTuple(a, b []dyncq.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mustParse parses a query the harness itself wrote; failure is a
// harness bug, not a scenario verdict.
func mustParse(text string) *cq.Query {
	q, err := cq.Parse(text)
	if err != nil {
		panic(fmt.Sprintf("torture: bad built-in query %q: %v", text, err))
	}
	return q
}
