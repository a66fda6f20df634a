package dyncq

import "fmt"

// This file is the workspace's self-checking surface, built for the
// torture harness (internal/torture) but useful to any operator: one
// call that verifies the cross-layer invariants the engine's correctness
// rests on — store bookkeeping, index content, and the core engines'
// data structures. The checks are read-only and run under the read
// lock, so they can interleave with live readers (but, like every read,
// they serialise behind writers).

// CheckInvariants verifies the workspace's internal invariants against
// its current committed state and returns the first violation found:
//
//   - the shared store's cardinality equals the sum of its relations'
//     sizes;
//   - every relation's records and membership slots agree, and every
//     index built on the store mirrors its relation
//     (dyndb.Database.CheckIndexes): each list holds only stored tuples
//     under their own key, at the positions the index records, with its
//     own count, and the lists hold every stored tuple;
//   - every core-routed query's engine passes core.Engine.CheckInvariants:
//     weights, fit lists and sums of Section 6.4, and the item arenas'
//     records, links and free chains.
//
// A healthy workspace passes at any point between commits. The call is
// read-locked and safe for concurrent use; it costs time linear in the
// store and the engines.
func (w *Workspace) CheckInvariants() error {
	w.mu.RLock()
	defer w.mu.RUnlock()
	total := 0
	for _, rel := range w.store.Relations() {
		total += w.store.Relation(rel).Len()
	}
	if total != w.store.Cardinality() {
		return fmt.Errorf("dyncq: store cardinality %d, but relations hold %d tuples", w.store.Cardinality(), total)
	}
	if err := w.store.CheckIndexes(); err != nil {
		return fmt.Errorf("dyncq: store indexes: %w", err)
	}
	for _, h := range w.order {
		if b, ok := h.back.(*coreBackend); ok {
			if err := b.e.CheckInvariants(); err != nil {
				return fmt.Errorf("dyncq: query %q: %w", h.name, err)
			}
		}
	}
	return nil
}
