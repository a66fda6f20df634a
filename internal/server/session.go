package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"dyncq/internal/stream"
	"dyncq/pkg/dyncq"
)

// session is one client connection: a reader goroutine parsing and
// dispatching commands, and a writer goroutine for the frames other
// goroutines queue. Every frame goes through the one bounded outbox and
// leaves it in a drain — everything queued, in order, in one vectored
// write — under the write mutex, so frames interleave only at frame
// boundaries and leave in the order they were queued, whichever
// goroutine drains. Command responses go through send (blocking —
// natural backpressure on the client's own requests) and leave when the
// reader drains, just before it reads more input (Read); broker deltas go
// through trySend (non-blocking — a slow subscriber never stalls a
// commit) and wake the writer goroutine.
type session struct {
	srv  *Server
	conn net.Conn
	out  chan frame
	done chan struct{}
	// wake asks the writer goroutine for a drain; one pending wake-up
	// covers every frame queued before the drain it causes.
	wake chan struct{}

	closeOnce sync.Once

	// subs is this session's active subscriptions, guarded by
	// Server.subMu (all subscription topology shares that one lock).
	subs map[string]*subscriber

	// wmu serializes drains: a frame taken from the outbox is on the wire,
	// or the session is closed, before the next drain takes one. burst and
	// bufs belong to whoever holds it.
	wmu   sync.Mutex
	burst net.Buffers
	bufs  net.Buffers // escapes into WriteTo: kept here, not declared per drain

	// Batch state (reader goroutine only). The pending updates' tuples
	// live in arena, which is reset when a batch begins: Commit keeps
	// nothing of a batch once it returns, so one array serves every batch.
	inBatch  bool
	pending  []dyncq.Update
	arena    stream.Arena
	batchErr error
}

// frame is one outbox element, written head, blocks, tail. A reply line,
// a delta or a resync frame is all head. An `enumerate` frame is its
// header line, the blocks of the snapshot's leaves — shared with every
// other session and version that covers those leaves, so only ever read —
// and the terminator.
type frame struct {
	head   []byte
	blocks [][]byte
	tail   []byte
}

func newSession(srv *Server, conn net.Conn) *session {
	return &session{
		srv:  srv,
		conn: conn,
		out:  make(chan frame, srv.opt.OutboxFrames),
		done: make(chan struct{}),
		wake: make(chan struct{}, 1),
		subs: make(map[string]*subscriber),
	}
}

// run services the connection until the client quits, the connection
// drops, or the server shuts down. Blocking; callers spawn it.
func (s *session) run() {
	defer s.close()
	go s.writer()
	sc := bufio.NewScanner(s)
	// The scanner's limit is the larger of the initial capacity and the
	// maximum, so the initial buffer must not exceed MaxLine.
	sc.Buffer(make([]byte, 0, min(64*1024, s.srv.opt.MaxLine)), s.srv.opt.MaxLine)
	for sc.Scan() {
		// The line stays in the scanner's buffer: update lines are parsed
		// there, and only the other verbs copy it into a string.
		line := bytes.TrimRight(sc.Bytes(), "\r")
		if len(line) == 0 {
			continue
		}
		if !s.dispatch(line) {
			return
		}
		if s.srv.backlog.Load() && !s.inBatch && !s.flush() {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// The scanner cannot resynchronise past an over-long line: answer
		// it, then drop the connection.
		s.farewell(fmt.Sprintf("err line exceeds %d bytes", s.srv.opt.MaxLine))
	}
}

// Read is the scanner's source: the connection, read once the scanner
// has dispatched every line it holds, so the replies queued so far leave
// first, in the reader's own drain — a closed-loop client's reply costs no
// goroutine switch, and `ok begin` and `ok committed` share one write.
// Mid-batch the writer goroutine drains instead: the client may
// read `ok begin` only after it has written the rest of the batch, which
// on an unbuffered transport would block this drain and the client's
// write on each other.
func (s *session) Read(p []byte) (int, error) {
	if !s.inBatch {
		if !s.flush() {
			return 0, net.ErrClosed
		}
	} else if len(s.out) > 0 {
		s.wakeWriter()
	}
	return s.conn.Read(p)
}

// flush is the reader's drain. A reader that never runs out of input —
// the next request is always in before the reply leaves, or a client
// pipelines its batches — keeps its processor, so the writer goroutines
// its commits woke wait, on one processor, until the scheduler preempts
// it. Once some trySend has left an outbox more than half full
// (Server.backlog) the reader drains after the request at hand and
// yields: a subscriber's frames still leave several to a write, but its
// outbox does not overflow into drops and a resync.
func (s *session) flush() bool {
	ok := s.drain()
	if s.srv.backlog.Load() && s.srv.backlog.Swap(false) {
		runtime.Gosched()
	}
	return ok
}

// writer drains the outbox for the frames other goroutines queue — the
// broker's deltas and resyncs — and mid-batch for `ok begin` (see Read).
func (s *session) writer() {
	for {
		select {
		case <-s.done:
			return
		case <-s.wake:
			if !s.drain() {
				return
			}
		}
	}
}

// wakeWriter asks the writer goroutine for a drain, without blocking.
func (s *session) wakeWriter() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// drain writes everything queued in the outbox to the connection in one
// vectored write under one deadline, so a reply and the frames queued
// behind it (`ok begin` and `ok committed`, deltas beside a reply) cost
// one syscall, and an `enumerate` frame's blocks go out by reference. A
// write error or timeout tears the session down; in-flight frames are
// discarded, and drain returns false.
func (s *session) drain() bool {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	// net.Buffers consumes what it writes — it slides over and clears the
	// slice it is given — so the burst is flattened into a slice of the
	// session's own, never written from a frame's block vector.
take:
	for {
		select {
		case f := <-s.out:
			s.burst = append(append(s.burst, f.head), f.blocks...)
			if f.tail != nil {
				s.burst = append(s.burst, f.tail)
			}
		default:
			break take
		}
	}
	if len(s.burst) == 0 {
		return true
	}
	if s.srv.opt.WriteTimeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.srv.opt.WriteTimeout))
	}
	s.bufs = s.burst
	_, err := s.bufs.WriteTo(s.conn)
	s.burst = s.burst[:0]
	if err != nil {
		s.close()
		return false
	}
	return true
}

// send enqueues a command response (reader goroutine only), draining
// the outbox itself when it is full. Returns false when the session is
// closed.
func (s *session) send(f frame) bool {
	for {
		select {
		case s.out <- f:
			return true
		case <-s.done:
			return false
		default:
		}
		if !s.flush() {
			return false
		}
	}
}

// trySend enqueues a broker frame without blocking and wakes the writer
// goroutine: the commit path calls this with the workspace write lock
// held, so a full outbox drops the frame (the broker records the lag)
// rather than stalling every other client's updates. A closed session
// reports success — the frame is moot and the subscription is about to
// be reaped.
//
//dyncq:hot
func (s *session) trySend(f frame) bool {
	select {
	case <-s.done:
		return true
	case s.out <- f:
	default:
		return false
	}
	s.wakeWriter()
	if len(s.out) > cap(s.out)/2 {
		s.srv.backlog.Store(true)
	}
	return true
}

func (s *session) sendLine(line string) bool { return s.send(frame{head: []byte(line + "\n")}) }

func (s *session) ok(format string, args ...any) bool {
	return s.sendLine("ok " + fmt.Sprintf(format, args...))
}

func (s *session) err(e error) bool {
	return s.sendLine("err " + sanitizeErr(e))
}

func (s *session) errf(format string, args ...any) bool {
	return s.err(fmt.Errorf(format, args...))
}

// close tears the session down exactly once: wakes the writer, closes
// the connection (unblocking the reader), and unhooks every
// subscription from the broker. Safe from any goroutine.
func (s *session) close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.conn.Close()
		s.srv.dropSession(s)
	})
}

// dispatch handles one request line, which is only valid until it
// returns. Returns false to end the session.
func (s *session) dispatch(line []byte) bool {
	if s.inBatch {
		return s.dispatchBatch(line)
	}
	if cmd, rest, _ := bytes.Cut(line, []byte{' '}); string(cmd) == "apply" {
		// Parsed into the arena like a batch line, and committed as a
		// batch of one.
		s.pending = s.pending[:0]
		s.arena.Reset()
		if err := s.parseUpdate(bytes.TrimSpace(rest)); err != nil {
			return s.err(err)
		}
		// The reply names the version this commit produced, taken inside
		// the commit: another session may have committed since.
		n, version, err := s.srv.ws.Commit(s.pending)
		s.pending = s.pending[:0]
		if err != nil {
			return s.err(err)
		}
		return s.send(frame{head: encodeReply("applied", "", uint64(n), version)})
	}
	return s.dispatchVerb(string(line))
}

// dispatchVerb handles a request line that is neither an update nor a
// batch line.
func (s *session) dispatchVerb(line string) bool {
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case "register":
		name, query, okSplit := strings.Cut(rest, " ")
		if !okSplit || name == "" || strings.TrimSpace(query) == "" {
			return s.errf("usage: register <name> <query>")
		}
		h, err := s.srv.ws.Register(name, query)
		if err != nil {
			return s.err(err)
		}
		return s.ok("registered %s %s %d", name, h.Strategy(), s.srv.ws.Version())
	case "unregister":
		name := strings.TrimSpace(rest)
		if name == "" {
			return s.errf("usage: unregister <name>")
		}
		if !s.srv.unregister(name) {
			return s.errf("unknown query %q", name)
		}
		return s.ok("unregistered %s", name)
	case "begin":
		s.inBatch = true
		s.pending = s.pending[:0]
		s.arena.Reset()
		s.batchErr = nil
		return s.send(frame{head: okBeginLine})
	case "commit", "abort":
		return s.errf("%s outside begin", cmd)
	case "count", "answer":
		h, bad := s.handleArg(rest, cmd)
		if h == nil {
			return bad
		}
		n, version := h.CountAt()
		if cmd == "count" {
			return s.send(frame{head: encodeReply("count", h.Name(), n, version)})
		}
		return s.send(frame{head: encodeAnswer(h.Name(), n > 0, version)})
	case "enumerate":
		h, bad := s.handleArg(rest, "enumerate")
		if h == nil {
			return bad
		}
		// Pin an MVCC snapshot (O(1) on a warm version) and serve its
		// frame: the leaves' encode-once blocks, the same bytes for every
		// client and every version that shares a leaf, so only what the
		// commits since the last enumerate rebuilt is encoded here. No
		// lock is held while encoding or writing, so a slow client
		// draining a huge result never blocks a commit.
		return s.send(s.srv.enumerateFrame(h.Snapshot()))
	case "subscribe":
		name := strings.TrimSpace(rest)
		if name == "" {
			return s.errf("usage: subscribe <name>")
		}
		version, err := s.srv.subscribe(s, name)
		if err != nil {
			return s.err(err)
		}
		return s.ok("subscribed %s %d", name, version)
	case "unsubscribe":
		name := strings.TrimSpace(rest)
		if name == "" {
			return s.errf("usage: unsubscribe <name>")
		}
		if !s.srv.unsubscribe(s, name) {
			return s.errf("not subscribed to %q", name)
		}
		return s.ok("unsubscribed %s", name)
	case "queries":
		names := make([]string, 0, 8)
		for _, h := range s.srv.ws.Handles() {
			names = append(names, h.Name())
		}
		return s.ok("queries %s", strings.Join(names, ","))
	case "version":
		return s.ok("version %d", s.srv.ws.Version())
	case "ping":
		return s.ok("pong")
	case "quit":
		s.farewell("bye")
		return false
	default:
		return s.errf("unknown command %q", cmd)
	}
}

// dispatchBatch handles lines between begin and commit/abort: bare
// ±R(t) update lines accumulate without per-line responses (that is
// the batch streaming efficiency); the first malformed line poisons
// the batch, reported at commit.
func (s *session) dispatchBatch(line []byte) bool {
	switch string(line) {
	case "commit":
		s.inBatch = false
		if s.batchErr != nil {
			s.pending = s.pending[:0]
			return s.errf("batch aborted: %v", s.batchErr)
		}
		n, version, err := s.srv.ws.Commit(s.pending)
		s.pending = s.pending[:0]
		if err != nil {
			return s.err(err)
		}
		return s.send(frame{head: encodeReply("committed", "", uint64(n), version)})
	case "abort":
		s.inBatch = false
		s.pending = s.pending[:0]
		s.batchErr = nil
		return s.ok("aborted")
	case "quit":
		s.farewell("bye")
		return false
	}
	if s.batchErr == nil { // once poisoned, keep consuming until commit/abort
		s.batchErr = s.parseUpdate(line)
	}
	return true
}

// parseUpdate parses an update line into the arena and appends it to the
// pending batch.
func (s *session) parseUpdate(line []byte) error {
	u, err := s.arena.Parse(line)
	if err == nil {
		s.pending = append(s.pending, u)
	}
	return err
}

// handleArg resolves the single query-name argument of count/answer/
// enumerate. On failure the session has already been answered; the
// bool is the dispatch return value.
func (s *session) handleArg(rest, cmd string) (*dyncq.Handle, bool) {
	name := strings.TrimSpace(rest)
	if name == "" {
		return nil, s.errf("usage: %s <name>", cmd)
	}
	h := s.srv.ws.Handle(name)
	if h == nil {
		return nil, s.errf("unknown query %q", name)
	}
	return h, true
}

// farewell writes the connection's last line, with everything queued
// before it, before the deferred close.
func (s *session) farewell(line string) {
	if s.sendLine(line) {
		s.drain()
	}
}
