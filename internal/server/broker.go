package server

import (
	"sync"
	"sync/atomic"

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
	mu     sync.Mutex
	topics map[string]*topic
}

// topic is one query's subscribers and the free list its frames'
// buffers are recycled through. Its subs are guarded by broker.mu.
type topic struct {
	subs []*subscriber
	free freeFrames
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

// frameBuf holds the bytes of one delta or resync frame, shared by every
// outbox the broker queued the frame to. refs counts those outboxes, plus
// publish itself while it queues; a drain releases its outbox's reference
// once the write that carried the frame has returned, and the last
// release puts the buffer on its topic's free list, so a steady stream of
// commits encodes every frame into a recycled buffer. A frame still in a
// closed session's outbox is never released: its buffer is left to the
// collector.
type frameBuf struct {
	b    []byte
	refs atomic.Int32
	free *freeFrames
	next *frameBuf // the buffer below this one on the free list
}

// freeFrames is a topic's free list of frame buffers: a stack linked
// through frameBuf.next, its head one atomic word, so that a drain gives a
// buffer back without a lock. publish, under broker.mu, is the one taker:
// no buffer can be taken and put back between its reading the head and
// its swapping it out, so a compare-and-swap on the head alone is sound.
// The stack holds at most keepFree bytes: a subscriber's writer goroutine
// may drain a burst of up to half an outbox at once — the committing
// reader yields to it only then (session.flush) — and every frame of the
// burst comes back in that drain.
type freeFrames struct {
	head  atomic.Pointer[frameBuf]
	bytes atomic.Int64 // the capacity of the buffers on the stack
}

// keepFrame bounds, in bytes, a buffer the free list takes back, and
// keepFree the bytes it holds: a frame of a bulk commit's delta is left to
// the collector once written.
const (
	keepFrame = 16 << 10
	keepFree  = 256 << 10
)

// get takes a buffer off the free list, or makes one when it is empty.
// Only publish calls it, with broker.mu held.
//
//dyncq:hot
func (f *freeFrames) get() *frameBuf {
	for {
		fb := f.head.Load()
		if fb == nil {
			return &frameBuf{free: f} //dyncq:allow hotalloc the free list is empty only until as many buffers as frames in flight exist
		}
		if f.head.CompareAndSwap(fb, fb.next) {
			f.bytes.Add(-int64(cap(fb.b)))
			fb.next = nil
			return fb
		}
	}
}

// frame returns an outbox frame of the bytes just encoded into fb, holding
// one reference: the caller's own, until it has queued it.
func (fb *frameBuf) frame() frame {
	fb.refs.Store(1)
	return frame{head: fb.b, buf: fb}
}

// release drops one reference to fb. The last puts it back on its free
// list, unless it grew past keepFrame or the list holds keepFree bytes.
//
//dyncq:hot
func (fb *frameBuf) release() {
	if fb.refs.Add(-1) != 0 || cap(fb.b) > keepFrame {
		return
	}
	f, size := fb.free, int64(cap(fb.b))
	if f.bytes.Add(size) > keepFree {
		f.bytes.Add(-size)
		return
	}
	for {
		fb.next = f.head.Load()
		if f.head.CompareAndSwap(fb.next, fb) {
			return
		}
	}
}

func newBroker() *broker {
	return &broker{topics: make(map[string]*topic)}
}

// add registers sub for name and reports whether it is the first
// subscriber of that query (the caller then starts delta capture).
// Caller holds Server.subMu.
func (b *broker) add(name string, sub *subscriber) (first bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topics[name]
	if t == nil {
		t = &topic{}
		b.topics[name] = t
	}
	t.subs = append(t.subs, sub)
	return len(t.subs) == 1
}

// remove drops the subscription of sess for name and reports whether
// the query now has no subscribers left (the caller then stops delta
// capture). Caller holds Server.subMu.
func (b *broker) remove(name string, sess *session) (found, last bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topics[name]
	if t == nil {
		return false, false
	}
	for i, sub := range t.subs {
		if sub.sess == sess {
			t.subs[i] = t.subs[len(t.subs)-1]
			t.subs = t.subs[:len(t.subs)-1]
			if len(t.subs) == 0 {
				delete(b.topics, name)
				return true, true
			}
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
	t := b.topics[name]
	if t == nil {
		return nil
	}
	delete(b.topics, name)
	return t.subs
}

// dropped returns the total frames dropped across current lagged
// subscribers of name (observability; used by tests and stats).
func (b *broker) droppedFrames(name string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n uint64
	if t := b.topics[name]; t != nil {
		for _, sub := range t.subs {
			n += sub.dropped
		}
	}
	return n
}

// publish delivers one committed delta event to every subscriber of
// its query. Runs inside the commit, with the workspace write lock
// held: it must never block. The frame is encoded exactly once, into a
// buffer off the topic's free list — the event's tuples are lent only
// for the length of the call, its frame is not — and the identical bytes
// go to each subscriber's outbox, so delta streams are byte-identical
// across connections. A subscriber whose outbox is full is marked lagged
// and skipped; once its outbox drains enough to accept a frame again it
// gets a resync line first (telling it how many frames it lost and
// through which version) and resumes with the NEXT delta — the current
// one is intentionally skipped so the resync boundary is unambiguous.
//
//dyncq:hot
func (b *broker) publish(ev dyncq.DeltaEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topics[ev.Query]
	if t == nil {
		return
	}
	fb := t.free.get()
	fb.b = encodeDelta(fb.b, ev)
	delta := fb.frame()
	for _, sub := range t.subs {
		if sub.lagged {
			sub.dropped++
			rb := t.free.get()
			rb.b = encodeResync(rb.b, ev.Query, ev.Version, sub.dropped)
			if sub.sess.trySend(rb.frame()) {
				sub.lagged = false
				sub.dropped = 0
			} else {
				rb.release()
			}
			continue
		}
		fb.refs.Add(1)
		if !sub.sess.trySend(delta) {
			fb.refs.Add(-1)
			sub.lagged = true
			sub.dropped = 1
		}
	}
	fb.release()
}
