package ivm

import (
	"fmt"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
)

// harness is the test-side owner of a maintainer's store: it mutates it
// exactly once per command and drives the maintainer
// through the workspace's hook schedule, under the names the tests use.
// With emit set it asks for each commit's result delta and keeps the last
// one in added/removed.
type harness struct {
	*Maintainer
	emit           bool
	added, removed [][]Value
}

func newHarness(q *cq.Query) (*harness, error) {
	m, err := New(q, dyndb.New())
	return &harness{Maintainer: m}, err
}

func (h *harness) Insert(r string, t ...Value) (bool, error) { return h.Apply(dyndb.Insert(r, t...)) }
func (h *harness) Delete(r string, t ...Value) (bool, error) { return h.Apply(dyndb.Delete(r, t...)) }

// Apply is a batch of one.
func (h *harness) Apply(u dyndb.Update) (bool, error) {
	n, err := h.ApplyBatch([]dyndb.Update{u})
	return n == 1, err
}

// ApplyBatch is the workspace's schedule: the hooks inside the crossover
// bracket.
func (h *harness) ApplyBatch(updates []dyndb.Update) (int, error) {
	for _, u := range updates {
		if want, ok := h.schema[u.Rel]; ok && want != len(u.Tuple) {
			return 0, fmt.Errorf("%s has arity %d in query, got tuple of length %d", u.Rel, want, len(u.Tuple))
		}
	}
	survivors, err := h.db.NetDelta(updates)
	if err != nil || len(survivors) == 0 {
		return 0, err
	}
	h.BeginBatch(len(survivors), h.emit)
	defer func() { h.added, h.removed = h.FinishBatch() }()
	// Per relation, in first-appearance order: pre-state hook, the store
	// mutation, post-state hook.
	for rest := survivors; len(rest) > 0; {
		rel, todo := rest[0].Rel, rest
		var cmds []dyndb.Update
		var dels, ins [][]Value
		rest = nil
		for _, u := range todo {
			switch {
			case u.Rel != rel:
				rest = append(rest, u)
			case u.Op == dyndb.OpDelete:
				cmds, dels = append(cmds, u), append(dels, u.Tuple)
			default:
				cmds, ins = append(cmds, u), append(ins, u.Tuple)
			}
		}
		h.PreDelete(rel, dels)
		h.db.ApplyNetDelta(cmds, 1)
		h.PostInsert(rel, ins)
	}
	return len(survivors), nil
}

func (h *harness) Load(db *dyndb.Database) error {
	h.db.Clear()
	if err := h.db.CopyFrom(db); err != nil {
		return err
	}
	return h.Rebuild()
}
