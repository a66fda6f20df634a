// Fixture for the subscription-broker rank: package path and
// type/field names match the real internal/server broker, so the rank
// table entry (rank 1, above the engine lock) applies. The property
// under test is the slow-consumer policy's foundation — publish runs
// with the workspace write lock held, so a blocking send under
// broker.mu would let one stuck subscriber stall every commit.
package server

import "sync"

type broker struct {
	mu   sync.Mutex
	subs map[string][]chan []byte
}

// blockingPublish is the bug the rank + channel rules catch: a plain
// channel send while holding broker.mu blocks the whole commit path on
// one full outbox.
func (b *broker) blockingPublish(name string, frame []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, out := range b.subs[name] {
		out <- frame // want `channel send while holding b.mu can block indefinitely with the lock held`
	}
}

// publish is the correct shape: select with default never blocks, so
// it is exempt from the channel rule.
func (b *broker) publish(name string, frame []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, out := range b.subs[name] {
		select {
		case out <- frame:
		default:
		}
	}
}

// twoBrokers acquires a second broker.mu under the first: both are
// rank 1, and equal rank under the declared order is an inversion the
// same way it is for two Workspaces — there is exactly one broker per
// server, so a second acquisition is a deadlock-shaped bug.
func twoBrokers(a, b *broker) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `violates the declared lock order`
	b.mu.Unlock()
}
