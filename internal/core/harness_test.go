package core

import (
	"fmt"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/tuplekey"
)

// harness is the test-side owner of an engine's store: it applies every
// command to its own dyndb.Database exactly once and feeds the engine
// what the workspace would — ApplyDelta for net deltas (of one, for a
// single command), Rebuild for loads — under the method names the tests
// use. With emit set it asks for each commit's result delta and keeps the
// last one in added/removed.
type harness struct {
	*Engine
	db             *dyndb.Database
	schema         map[string]int
	emit           bool
	added, removed [][]Value
}

func newHarness(q *cq.Query) (*harness, error) {
	e, err := New(q)
	if err != nil {
		return nil, err
	}
	h := &harness{Engine: e, db: dyndb.New(), schema: q.Schema()}
	h.Rebuild(h.db) // fixes the engine's relation ids in h.db
	return h, nil
}

func (h *harness) checkArity(updates ...dyndb.Update) error {
	for _, u := range updates {
		if want, ok := h.schema[u.Rel]; ok && want != len(u.Tuple) {
			return fmt.Errorf("%s has arity %d in query, got tuple of length %d", u.Rel, want, len(u.Tuple))
		}
	}
	return nil
}

func (h *harness) Apply(u dyndb.Update) (bool, error) {
	if err := h.checkArity(u); err != nil {
		return false, err
	}
	net, err := h.db.NetDelta([]dyndb.Update{u})
	if err != nil || len(net) == 0 {
		return false, err
	}
	h.db.ApplyNetDelta(net, 0)
	h.added, h.removed = h.ApplyDelta(net, h.emit)
	return true, nil
}

func (h *harness) Insert(rel string, tuple ...Value) (bool, error) {
	return h.Apply(dyndb.Insert(rel, tuple...))
}

func (h *harness) Delete(rel string, tuple ...Value) (bool, error) {
	return h.Apply(dyndb.Delete(rel, tuple...))
}

// ApplyBatch validates atomically, applies the net delta to the store
// once, and hands it to the engine.
func (h *harness) ApplyBatch(updates []dyndb.Update) (int, error) {
	if err := h.checkArity(updates...); err != nil {
		return 0, err
	}
	survivors, err := h.db.NetDelta(updates)
	if err != nil {
		return 0, err
	}
	h.db.ApplyNetDelta(survivors, 0)
	h.added, h.removed = h.ApplyDelta(survivors, h.emit)
	return len(survivors), nil
}

func (h *harness) Load(db *dyndb.Database) error {
	h.db.Clear()
	if err := h.db.CopyFrom(db); err != nil {
		return err
	}
	h.Rebuild(h.db)
	return nil
}

// lookup finds the item of node ni whose path is path (one value per
// depth, root first) by probing its ancestors top-down, as updateAtom
// does; 0 if there is none.
func (c *comp) lookup(ni int32, path []Value) ref {
	var nodes []int32
	for at := ni; at >= 0; at = c.nodes[at].parent {
		nodes = append([]int32{at}, nodes...)
	}
	if len(path) != len(nodes) {
		return 0
	}
	h, r := pathSeed, ref(0)
	for j, at := range nodes {
		h = tuplekey.Extend(h, path[j])
		if _, r = c.index[at].probe(h, &c.arenas[at], c.nodes[at].offOwn, path[j], r); r == 0 {
			return 0
		}
	}
	return r
}
