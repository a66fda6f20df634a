package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dyncq/pkg/dyncq"
)

// Options configures a Server. The zero value is usable; zero fields
// take the defaults below.
type Options struct {
	// OutboxFrames bounds each connection's outgoing frame queue.
	// When a subscriber's outbox is full, delta frames are dropped and
	// the subscriber is resynced later — commits never wait on a slow
	// consumer. Default 256.
	OutboxFrames int
	// WriteTimeout bounds each write to a connection — one burst of
	// everything queued in its outbox; a stuck peer is disconnected
	// rather than pinning its writer goroutine. Default 10s; negative
	// disables.
	WriteTimeout time.Duration
	// DrainTimeout bounds Close's wait for live sessions to finish.
	// Default 5s.
	DrainTimeout time.Duration
	// MaxLine bounds one request line in bytes. Default 16 MiB
	// (matching the line cap of the CLI's update files).
	MaxLine int
}

func (o Options) withDefaults() Options {
	if o.OutboxFrames <= 0 {
		o.OutboxFrames = 256
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.MaxLine <= 0 {
		o.MaxLine = 16 << 20
	}
	return o
}

// Server owns one Workspace and serves it to many concurrent client
// connections. Writers (apply/commit) serialize on the workspace's own
// write lock. Readers take no lock while a snapshot of the current
// version is cached: enumerate pins one (and writes its frame with no
// lock held), and count/answer read its header. Otherwise a count/answer
// reads under the workspace read lock, and enumerate's pin materialises
// under it; a commit waits for either. Subscriptions push per-commit
// delta frames through a bounded outbox per connection (see broker).
type Server struct {
	ws     *dyncq.Workspace
	opt    Options
	broker *broker

	// Encode-once counters of the `enumerate` frames' leaf blocks
	// (FrameCacheStats), and the tuple lines formatted to fill them.
	blocksReused, blocksEncoded, rowsFormatted atomic.Uint64

	// backlog is set by a trySend that leaves an outbox more than half
	// full, and cleared by the reader that yields for it (session.flush).
	backlog atomic.Bool

	// subMu serializes all subscription topology changes: broker
	// add/remove, capture start/stop, and each session's subs map. It
	// is always acquired with no other lock held; the workspace and
	// broker locks nest beneath the operations it serializes.
	subMu sync.Mutex

	mu        sync.Mutex // guards sessions, listeners, closed
	sessions  map[*session]struct{}
	listeners map[net.Listener]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// New builds a Server around a fresh Workspace.
func New(opt Options) *Server {
	return &Server{
		ws:        dyncq.NewWorkspace(dyncq.WorkspaceOptions{}),
		opt:       opt.withDefaults(),
		broker:    newBroker(),
		sessions:  make(map[*session]struct{}),
		listeners: make(map[net.Listener]struct{}),
	}
}

// Workspace exposes the served workspace, e.g. to pre-register queries
// or preload a database before accepting clients.
func (s *Server) Workspace() *dyncq.Workspace { return s.ws }

// ErrClosed is returned by Serve/ServeConn after Close.
var ErrClosed = errors.New("server closed")

// Serve accepts connections on l until l is closed or the server shuts
// down. Blocking; one goroutine per accepted connection. An Accept error
// that is Temporary is retried after a backoff, 5 ms doubling to 1 s;
// any other ends Serve.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrClosed
			}
			// A temporary failure — EMFILE when the process is out of file
			// descriptors — passes once sessions end: retry it after a
			// capped backoff rather than drop every live session.
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		go s.ServeConn(conn)
	}
}

// ServeConn runs the wire protocol on one already-established
// connection (any net.Conn — TCP, Unix socket, or net.Pipe in tests).
// Blocking until the client quits, the connection drops, or the server
// closes; callers wanting concurrency spawn it: go srv.ServeConn(c).
func (s *Server) ServeConn(conn net.Conn) error {
	sess := newSession(s, conn)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	s.sessions[sess] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	sess.run()
	return nil
}

// Close stops accepting, disconnects every session, and waits up to
// DrainTimeout for their goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	live := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()

	for _, sess := range live {
		sess.close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(s.opt.DrainTimeout):
		return fmt.Errorf("server close: %d session(s) still draining after %v", s.SessionCount(), s.opt.DrainTimeout)
	}
}

// DroppedFrames reports the delta frames dropped for name's currently
// lagged subscribers (observability; the bench server phase records it).
func (s *Server) DroppedFrames(name string) uint64 {
	return s.broker.droppedFrames(name)
}

// enumerateFrame returns the `enumerate` frame of a pinned snapshot: a
// header line of its own, the leaves' encoded blocks, the terminator. A
// leaf's block is filled once and kept on the leaf itself
// (dyncq.QuerySnapshot.Blocks), and a leaf a commit rebuilt has its block
// spliced from the blocks of the leaves it came from: so the frame of a
// new version formats only the tuples the commits since the last
// enumerate added — O(|Δ|) rows, not the rebuilt leaves — and the blocks
// fan out by reference, byte-identical, to every client — the same
// discipline broker.publish applies to delta frames. A block is collected
// with the leaf it renders, and any eviction or unregister/re-register
// starts from fresh leaves: there is no cache to purge and a stale block
// can never be served.
//
//dyncq:hot
func (s *Server) enumerateFrame(snap *dyncq.QuerySnapshot) frame {
	blocks, filled, formatted := snap.Blocks()
	s.blocksEncoded.Add(uint64(filled))
	s.blocksReused.Add(uint64(len(blocks) - filled))
	s.rowsFormatted.Add(uint64(formatted))
	return frame{head: encodeSnapshotHeader(snap), blocks: blocks, tail: frameEndBlock}
}

// FrameCacheStats is the server's encode-once counters, in leaf blocks of
// the `enumerate` frames served: Hits were sent as some earlier enumerate
// — at this version or one before it — had filled them; Misses were
// filled for the frame at hand (the leaves rebuilt since, or all of them
// on the first enumerate after a cold pin). A miss is a block filled, not
// a block formatted: a rebuilt leaf's block is spliced from the blocks of
// the leaves it came from (dyncq.QuerySnapshot.Blocks), formatting only
// the rows no block held, so Hits/(Hits+Misses) does not measure
// formatting work. The rows formatted are counted apart, in the unexported
// rowsFormatted.
type FrameCacheStats struct {
	Hits   uint64
	Misses uint64
}

// FrameCacheStats returns the monotonic encode-once counters.
func (s *Server) FrameCacheStats() FrameCacheStats {
	return FrameCacheStats{Hits: s.blocksReused.Load(), Misses: s.blocksEncoded.Load()}
}

// SessionCount returns the number of live sessions (observability).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// subscribe wires sess into name's delta stream. The first subscriber
// of a query starts delta capture on the workspace; the returned
// version is a pre-capture lower bound — the client syncs by
// enumerating AFTER subscribing and skipping deltas at or below the
// snapshot's version.
func (s *Server) subscribe(sess *session, name string) (uint64, error) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.ws.Handle(name) == nil {
		return 0, fmt.Errorf("unknown query %q", name)
	}
	if _, dup := sess.subs[name]; dup {
		return 0, fmt.Errorf("already subscribed to %q", name)
	}
	version := s.ws.Version()
	sub := &subscriber{sess: sess}
	if first := s.broker.add(name, sub); first {
		if err := s.ws.CaptureDeltas(name, s.broker.publish); err != nil {
			s.broker.remove(name, sess)
			return 0, err
		}
	}
	sess.subs[name] = sub
	return version, nil
}

// unsubscribe unwires sess from name; the last unsubscribe of a query
// stops its delta capture.
func (s *Server) unsubscribe(sess *session, name string) bool {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	return s.unsubscribeLocked(sess, name)
}

func (s *Server) unsubscribeLocked(sess *session, name string) bool {
	if _, ok := sess.subs[name]; !ok {
		return false
	}
	delete(sess.subs, name)
	found, last := s.broker.remove(name, sess)
	if found && last {
		s.ws.StopDeltaCapture(name)
	}
	return true
}

// unregister removes a query from the workspace and severs all its
// subscriptions. Subscribers simply stop receiving frames for it.
func (s *Server) unregister(name string) bool {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	// Unregister clears the capture hook itself; the broker hands back
	// the severed subscribers so their sessions' subs maps (guarded by
	// subMu, held here) are reaped eagerly — a later subscribe to a
	// re-registered name must not read as a "duplicate".
	if !s.ws.Unregister(name) {
		return false
	}
	for _, sub := range s.broker.take(name) {
		delete(sub.sess.subs, name)
	}
	return true
}

// dropSession severs a disconnecting session's subscriptions, stopping
// capture for any query it was the last subscriber of.
func (s *Server) dropSession(sess *session) {
	s.subMu.Lock()
	for name := range sess.subs {
		s.unsubscribeLocked(sess, name)
	}
	s.subMu.Unlock()
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}
