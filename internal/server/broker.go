package server

import (
	"sync"

	"dyncq/pkg/dyncq"
)

// broker fans committed delta frames out to subscribers. It sits at
// the end of the engine's hot commit path: Workspace.Commit →
// delta capture hook → broker.publish, with the workspace write lock
// held the whole way — so everything under broker.mu must be
// non-blocking. Sends use the session's bounded outbox with a
// select-default; a full outbox marks the subscriber lagged instead of
// stalling the commit (the slow-consumer policy: drop with resync).
//
// Lock ranking: broker.mu ranks ABOVE Workspace.mu (publish runs with
// the workspace lock held), and nothing may be acquired under it.
// Subscription topology changes (add/remove/dropQuery, plus each
// session's view of its own subscriptions) are serialized by
// Server.subMu, which is always taken with no other lock held.
type broker struct {
	mu   sync.Mutex
	subs map[string][]*subscriber
}

// subscriber is one (session, query) subscription. The lag state is
// guarded by broker.mu.
type subscriber struct {
	sess *session
	// lagged is set when a delta frame was dropped because the
	// session's outbox was full. While lagged, further deltas are
	// dropped (counted) and the subscriber owes a resync line.
	lagged  bool
	dropped uint64
}

func newBroker() *broker {
	return &broker{subs: make(map[string][]*subscriber)}
}

// add registers sub for name and reports whether it is the first
// subscriber of that query (the caller then starts delta capture).
// Caller holds Server.subMu.
func (b *broker) add(name string, sub *subscriber) (first bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	prev := b.subs[name]
	b.subs[name] = append(prev, sub)
	return len(prev) == 0
}

// remove drops the subscription of sess for name and reports whether
// the query now has no subscribers left (the caller then stops delta
// capture). Caller holds Server.subMu.
func (b *broker) remove(name string, sess *session) (found, last bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.subs[name]
	for i, sub := range subs {
		if sub.sess == sess {
			subs[i] = subs[len(subs)-1]
			subs = subs[:len(subs)-1]
			if len(subs) == 0 {
				delete(b.subs, name)
				return true, true
			}
			b.subs[name] = subs
			return true, false
		}
	}
	return false, false
}

// take removes and returns every subscription of name (query
// unregistered); the caller reaps the sessions' own bookkeeping.
// Caller holds Server.subMu.
func (b *broker) take(name string) []*subscriber {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.subs[name]
	delete(b.subs, name)
	return subs
}

// dropped returns the total frames dropped across current lagged
// subscribers of name (observability; used by tests and stats).
func (b *broker) droppedFrames(name string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n uint64
	for _, sub := range b.subs[name] {
		n += sub.dropped
	}
	return n
}

// publish delivers one committed delta event to every subscriber of
// its query. Runs inside the commit, with the workspace write lock
// held: it must never block. The frame is encoded exactly once and the
// identical byte slice goes to each subscriber's outbox, so delta
// streams are byte-identical across connections. A subscriber whose
// outbox is full is marked lagged and skipped; once its outbox drains
// enough to accept a frame again it gets a resync line first (telling
// it how many frames it lost and through which version) and resumes
// with the NEXT delta — the current one is intentionally skipped so
// the resync boundary is unambiguous.
//
//dyncq:hot
func (b *broker) publish(ev dyncq.DeltaEvent) {
	delta := frame{head: encodeDelta(ev)}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, sub := range b.subs[ev.Query] {
		if sub.lagged {
			sub.dropped++
			if sub.sess.trySend(frame{head: encodeResync(ev.Query, ev.Version, sub.dropped)}) {
				sub.lagged = false
				sub.dropped = 0
			}
			continue
		}
		if !sub.sess.trySend(delta) {
			sub.lagged = true
			sub.dropped = 1
		}
	}
}
