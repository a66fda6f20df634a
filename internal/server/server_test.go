package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/stream"
	"dyncq/internal/workload"
	"dyncq/pkg/dyncq"
)

// pipeClient wires a Client to a fresh in-process session over
// net.Pipe (deterministic; no real sockets).
func pipeClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	cs, ss := net.Pipe()
	go srv.ServeConn(ss)
	c := NewClient(cs)
	t.Cleanup(func() { c.Close() })
	return c
}

func newTestServer(t *testing.T, opt Options) *Server {
	t.Helper()
	srv := New(opt)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestProtocolBasics(t *testing.T) {
	srv := newTestServer(t, Options{})
	c := pipeClient(t, srv)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("q", "Q(y) :- E(x,y), T(y)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("q", "Q(y) :- E(x,y)"); err == nil {
		t.Fatal("duplicate register succeeded")
	}
	// A name no tuple line could carry: every enumerate of it would fail.
	for _, name := range []string{"a(b", "a\tb"} {
		if err := c.Register(name, "Q(y) :- E(x,y), T(y)"); err == nil || !strings.Contains(err.Error(), "not an identifier") {
			t.Fatalf("register %q: %v", name, err)
		}
	}
	if names, err := c.Queries(); err != nil || len(names) != 1 || names[0] != "q" {
		t.Fatalf("queries = %v, %v", names, err)
	}

	changed, v, err := c.Apply(dyndb.Insert("E", 1, 2))
	if err != nil || !changed || v != 1 {
		t.Fatalf("apply: changed=%v v=%d err=%v", changed, v, err)
	}
	if changed, _, err = c.Apply(dyndb.Insert("E", 1, 2)); err != nil || changed {
		t.Fatalf("duplicate insert reported changed=%v err=%v", changed, err)
	}
	if _, _, err := c.ApplyBatch([]dyncq.Update{
		dyndb.Insert("T", 2),
		dyndb.Insert("E", 3, 2),
		dyndb.Insert("E", 4, 7),
	}); err != nil {
		t.Fatal(err)
	}

	n, _, err := c.Count("q")
	if err != nil || n != 1 {
		t.Fatalf("count = %d, %v", n, err)
	}
	yes, _, err := c.Answer("q")
	if err != nil || !yes {
		t.Fatalf("answer = %v, %v", yes, err)
	}
	snap, err := c.Enumerate("q")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tuples) != 1 || snap.Tuples[0][0] != 2 || snap.Arity != 1 {
		t.Fatalf("enumerate = %+v", snap)
	}
	if _, err := c.Enumerate("nope"); err == nil {
		t.Fatal("enumerate of unknown query succeeded")
	}
	if err := c.Unregister("q"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Count("q"); err == nil {
		t.Fatal("count after unregister succeeded")
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolBatchAbortAndPoison(t *testing.T) {
	srv := newTestServer(t, Options{})
	c := pipeClient(t, srv)
	if err := c.Register("q", "Q(x,y) :- E(x,y)"); err != nil {
		t.Fatal(err)
	}

	// A malformed line inside begin/commit poisons the whole batch:
	// nothing is applied.
	cs, ss := net.Pipe()
	go srv.ServeConn(ss)
	defer cs.Close()
	br := bufio.NewReader(cs)
	sendLine := func(l string) {
		t.Helper()
		if _, err := cs.Write([]byte(l + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(prefix string) string {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimRight(line, "\n")
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("got %q, want prefix %q", line, prefix)
		}
		return line
	}
	sendLine("begin")
	expect("ok begin")
	sendLine("+E(1,2)")
	sendLine("this is not an update")
	sendLine("+E(3,4)")
	sendLine("commit")
	expect("err batch aborted:")
	if n, _, err := c.Count("q"); err != nil || n != 0 {
		t.Fatalf("poisoned batch leaked state: count=%d err=%v", n, err)
	}

	sendLine("begin")
	expect("ok begin")
	sendLine("+E(1,2)")
	sendLine("abort")
	expect("ok aborted")
	if n, _, err := c.Count("q"); err != nil || n != 0 {
		t.Fatalf("aborted batch leaked state: count=%d err=%v", n, err)
	}

	sendLine("commit")
	expect("err commit outside begin")
}

// TestSubscribeStreamsDeltas: the full subscribe → enumerate → apply
// deltas loop reconstructs the query result exactly, verified against
// an eval.Evaluate oracle on an independently maintained database.
func TestSubscribeStreamsDeltas(t *testing.T) {
	srv := newTestServer(t, Options{})
	writer := pipeClient(t, srv)
	subsc := pipeClient(t, srv)

	queryText := "Q(y) :- E(x,y), T(y)"
	if err := writer.Register("q", queryText); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse(queryText)

	if _, err := subsc.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := subsc.Subscribe("q"); err == nil {
		t.Fatal("duplicate subscribe succeeded")
	}
	base, err := subsc.Enumerate("q")
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	db := dyndb.New()
	stream := workload.RandomStream(rng, q.Schema(), 12, 400, 0.35)
	var finalVersion uint64
	for i := 0; i < len(stream); i += 40 {
		end := i + 40
		if end > len(stream) {
			end = len(stream)
		}
		if _, finalVersion, err = writer.ApplyBatch(stream[i:end]); err != nil {
			t.Fatal(err)
		}
		for _, u := range stream[i:end] {
			if _, err := db.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
	}

	state := make(map[string]bool)
	for _, tup := range base.Tuples {
		state[fmt.Sprint(tup)] = true
	}
	for d := range subsc.Deltas() {
		if d.Resync {
			t.Fatalf("unexpected resync (outbox should be ample): %+v", d)
		}
		if d.Version <= base.Version {
			continue // pre-snapshot delta; already folded into the base
		}
		for _, tup := range d.Added {
			k := fmt.Sprint(tup)
			if state[k] {
				t.Fatalf("version %d adds duplicate %v", d.Version, tup)
			}
			state[k] = true
		}
		for _, tup := range d.Removed {
			k := fmt.Sprint(tup)
			if !state[k] {
				t.Fatalf("version %d removes absent %v", d.Version, tup)
			}
			delete(state, k)
		}
		if d.Version == finalVersion {
			break
		}
	}

	want := eval.Evaluate(q, db).Tuples()
	if len(want) != len(state) {
		t.Fatalf("replayed state has %d tuples, oracle %d", len(state), len(want))
	}
	for _, tup := range want {
		if !state[fmt.Sprint([]dyncq.Value(tup))] {
			t.Fatalf("oracle tuple %v missing from replayed state", tup)
		}
	}

	if err := subsc.Unsubscribe("q"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := writer.Apply(dyndb.Insert("E", 999, 999)); err != nil {
		t.Fatal(err)
	}
	// After the last unsubscribe the capture is stopped server-side.
	if srv.broker.droppedFrames("q") != 0 {
		t.Fatal("dropped frames on an ample outbox")
	}
}

// TestSlowSubscriberDoesNotStallCommits is the graceful-degradation
// satellite: a subscriber that stops reading must not block a commit.
// The bounded outbox fills, frames are dropped, and once the subscriber
// drains it receives a resync line and can rebuild exact state with one
// re-enumerate.
func TestSlowSubscriberDoesNotStallCommits(t *testing.T) {
	srv := newTestServer(t, Options{OutboxFrames: 2, WriteTimeout: time.Minute})
	writer := pipeClient(t, srv)
	queryText := "Q(x,y) :- E(x,y)"
	if err := writer.Register("q", queryText); err != nil {
		t.Fatal(err)
	}

	// Raw subscriber connection: net.Pipe is unbuffered, so not
	// reading stalls the session writer on its first frame and the
	// 2-frame outbox right after.
	cs, ss := net.Pipe()
	go srv.ServeConn(ss)
	defer cs.Close()
	br := bufio.NewReader(cs)
	if _, err := cs.Write([]byte("subscribe q\n")); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ok subscribed q ") {
		t.Fatalf("subscribe: %q, %v", line, err)
	}
	// The subscriber now goes silent.

	const commits = 60
	start := time.Now()
	for i := 0; i < commits; i++ {
		if _, _, err := writer.ApplyBatch([]dyncq.Update{
			dyndb.Insert("E", dyncq.Value(i), dyncq.Value(i)),
			dyndb.Insert("E", dyncq.Value(i), dyncq.Value(i+1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("%d commits took %v against a stuck subscriber: commits must not stall", commits, elapsed)
	}
	if srv.broker.droppedFrames("q") == 0 {
		t.Fatal("no frames dropped: outbox bound not exercised (test setup broken?)")
	}

	// The subscriber wakes up and drains: some leading delta frames,
	// then exactly one resync, then it re-enumerates for exact state.
	// One more commit guarantees a publish that sees the drained
	// outbox and emits the pending resync.
	sawResync := false
	var resyncAt uint64
	deadline := time.After(10 * time.Second)
	lines := make(chan string, 64)
	go func() {
		for {
			l, err := br.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- strings.TrimRight(l, "\n")
		}
	}()
	next := 0
	for !sawResync {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatal("subscriber connection closed before resync")
			}
			if strings.HasPrefix(l, "resync q ") {
				var dropped uint64
				if _, err := fmt.Sscanf(l, "resync q %d %d", &resyncAt, &dropped); err != nil {
					t.Fatalf("malformed resync %q: %v", l, err)
				}
				if dropped == 0 {
					t.Fatalf("resync with zero dropped frames: %q", l)
				}
				sawResync = true
			}
		case <-time.After(200 * time.Millisecond):
			// Keep the stream moving: each commit is another publish
			// attempt, and the first one that finds outbox room
			// delivers the pending resync.
			next++
			if _, _, err := writer.Apply(dyndb.Insert("E", 5000, dyncq.Value(next))); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("no resync within deadline")
		}
	}

	// Quiesce, then resync-recover: enumerate and verify against the
	// server's own count (exact-state rebuild after drops).
	finalN, finalV, err := writer.Count("q")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Write([]byte("enumerate q\n")); err != nil {
		t.Fatal(err)
	}
	var header string
	for l := range lines {
		if strings.HasPrefix(l, "snapshot q ") {
			header = l
			break
		}
		// Skip delta frames interleaved before our snapshot response.
	}
	var n int
	var v uint64
	var arity int
	if _, err := fmt.Sscanf(header, "snapshot q %d %d %d", &n, &v, &arity); err != nil {
		t.Fatalf("malformed snapshot header %q: %v", header, err)
	}
	if v < resyncAt {
		t.Fatalf("re-enumerate pinned version %d, older than resync point %d", v, resyncAt)
	}
	if v == finalV && uint64(n) != finalN {
		t.Fatalf("re-enumerate at version %d has %d tuples, server count %d", v, n, finalN)
	}
}

// flakyListener fails its first Accepts with errs, then hands out conns,
// then blocks until it is closed.
type flakyListener struct {
	errs   []error // read by Serve's goroutine only
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newFlakyListener(errs ...error) *flakyListener {
	return &flakyListener{errs: errs, conns: make(chan net.Conn, 1), closed: make(chan struct{})}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		return nil, err
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestServeRetriesTemporaryAcceptErrors: an Accept that fails with EMFILE
// — the process is out of file descriptors — does not end Serve, which
// would drop every live session: Serve backs off, accepts the next
// connection and answers it. An error that is not temporary still ends
// Serve, and Close ends it with ErrClosed.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	srv := newTestServer(t, Options{})
	emfile := &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	l := newFlakyListener(emfile, emfile)
	cs, ss := net.Pipe()
	l.conns <- ss
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	c := NewClient(cs)
	defer c.Close()
	pinged := make(chan error, 1)
	go func() { pinged <- c.Ping() }()
	select {
	case err := <-pinged:
		if err != nil {
			t.Fatalf("ping after two EMFILE accepts: %v", err)
		}
	case err := <-served:
		t.Fatalf("Serve returned %v after a temporary accept error", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no pong within 5s")
	}

	boom := errors.New("listener broken")
	if err := srv.Serve(newFlakyListener(boom)); err != boom {
		t.Fatalf("Serve on a permanent accept error returned %v, want %v", err, boom)
	}
	srv.Close()
	if err := <-served; err != ErrClosed {
		t.Fatalf("Serve after Close returned %v, want ErrClosed", err)
	}
}

// TestServerCloseDrains: Close disconnects sessions and returns; a
// session blocked on a stuck peer does not hold Close past its drain
// timeout budget.
func TestServerCloseDrains(t *testing.T) {
	srv := New(Options{DrainTimeout: 2 * time.Second})
	c := pipeClient(t, srv)
	if err := c.Register("q", "Q(x) :- S(x)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("close took %v", elapsed)
	}
	if srv.SessionCount() != 0 {
		t.Fatalf("%d sessions survive close", srv.SessionCount())
	}
	// Subscriptions were reaped with the sessions: capture is off.
	if !captureInactive(srv, "q") {
		t.Fatal("delta capture still active after close")
	}
}

// captureInactive probes whether a fresh CaptureDeltas succeeds (and
// undoes it) — i.e. no capture was left behind.
func captureInactive(srv *Server, name string) bool {
	if err := srv.ws.CaptureDeltas(name, func(dyncq.DeltaEvent) {}); err != nil {
		return false
	}
	srv.ws.StopDeltaCapture(name)
	return true
}

// TestDisconnectReapsSubscriptions: an abrupt client disconnect (no
// quit) reaps its subscriptions; the last subscriber leaving stops
// delta capture.
func TestDisconnectReapsSubscriptions(t *testing.T) {
	srv := newTestServer(t, Options{})
	c1 := pipeClient(t, srv)
	if err := c1.Register("q", "Q(x) :- S(x)"); err != nil {
		t.Fatal(err)
	}
	c2 := pipeClient(t, srv)
	if _, err := c1.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !captureInactive(srv, "q") {
		if time.Now().After(deadline) {
			t.Fatal("capture still active after both subscribers disconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOverlongLineAnswered: a request line over Options.MaxLine is
// answered with an err frame before the connection drops (the scanner
// cannot resynchronise past it), and other connections are unaffected.
func TestOverlongLineAnswered(t *testing.T) {
	const maxLine = 256
	srv := newTestServer(t, Options{MaxLine: maxLine})
	cs, ss := net.Pipe()
	defer cs.Close()
	go srv.ServeConn(ss)
	// net.Pipe writes block until read: the server stops reading at the
	// limit, so the oversized write runs beside the reply read.
	go cs.Write([]byte("apply +E(" + strings.Repeat("1", 4*maxLine) + ",2)\n"))
	cs.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(cs)
	reply, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to an over-long line: %v", err)
	}
	if want := fmt.Sprintf("err line exceeds %d bytes\n", maxLine); reply != want {
		t.Fatalf("reply %q, want %q", reply, want)
	}
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection stayed open after an over-long line")
	}
	if err := pipeClient(t, srv).Ping(); err != nil {
		t.Fatalf("second connection after an over-long line: %v", err)
	}
}

// TestCommitReplyVersionIsOwn: the version in an `ok committed` reply is
// the one that commit produced, not whatever the workspace stands at once
// the reply is formatted. Two sessions commit disjoint non-empty batches
// concurrently; every commit advances the version by one, so the replies
// must name each version after the start exactly once. Run with -race.
func TestCommitReplyVersionIsOwn(t *testing.T) {
	srv := newTestServer(t, Options{})
	setup := pipeClient(t, srv)
	if err := setup.Register("q", "Q(x,y) :- E(x,y)"); err != nil {
		t.Fatal(err)
	}
	v0, err := setup.Version()
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 2, 400
	replies := make([][]uint64, writers)
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		c := pipeClient(t, srv)
		go func(w int) {
			for r := 0; r < rounds; r++ {
				// Writer w owns the x values ≡ w (mod writers): no batch
				// nets to nothing, whatever the interleaving.
				x := dyncq.Value(r*writers + w)
				n, v, err := c.ApplyBatch([]dyncq.Update{dyndb.Insert("E", x, 1), dyndb.Insert("E", x, 2)})
				if err == nil && n != 2 {
					err = fmt.Errorf("writer %d round %d: batch netted %d of 2 updates", w, r, n)
				}
				if err != nil {
					errs <- err
					return
				}
				replies[w] = append(replies[w], v)
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]int)
	for w, vs := range replies {
		for r, v := range vs {
			if prev, dup := seen[v]; dup {
				t.Fatalf("writer %d round %d: reply names version %d, which writer %d's reply named too", w, r, v, prev)
			}
			seen[v] = w
			if v <= v0 || v > v0+writers*rounds {
				t.Fatalf("writer %d round %d: reply names version %d, outside (%d, %d]", w, r, v, v0, v0+writers*rounds)
			}
		}
	}
	if len(seen) != writers*rounds {
		t.Fatalf("%d distinct reply versions over %d commits", len(seen), writers*rounds)
	}
}

// TestCountReplyIsConsistent: the count and the version of an `ok count`
// reply belong to one committed state. A writer adds exactly one result
// tuple per commit, so count − version never moves; a poller that only
// ever counts (it never enumerates, so no snapshot exists and every
// reply takes the cold path) must see that difference stay put. Reading
// the count and then the version under two separate locks lets a commit
// land in between and breaks it. Run with -race.
func TestCountReplyIsConsistent(t *testing.T) {
	srv := newTestServer(t, Options{})
	poller := pipeClient(t, srv)
	if err := poller.Register("q", "Q(x,y) :- E(x,y)"); err != nil {
		t.Fatal(err)
	}
	stop, written := make(chan struct{}), make(chan error, 1)
	go func() {
		ws := srv.Workspace()
		for x := dyncq.Value(0); ; x++ {
			select {
			case <-stop:
				written <- nil
				return
			default:
			}
			if n, _, err := ws.Commit([]dyncq.Update{dyndb.Insert("E", x, 1)}); err != nil || n != 1 {
				written <- fmt.Errorf("insert %d: applied=%d err=%v", x, n, err)
				return
			}
			runtime.Gosched() // on one processor the poller's goroutines need the turn
		}
	}()
	const replies = 2500
	n0, v0, err := poller.Count("q")
	for i := 0; i < replies && err == nil; i++ {
		var n, v uint64
		if n, v, err = poller.Count("q"); err == nil && n-v != n0-v0 {
			err = fmt.Errorf("reply %d: count %d at version %d, but count − version was %d at the first reply (count %d, version %d)",
				i, n, v, int64(n0-v0), n0, v0)
		}
	}
	close(stop)
	if werr := <-written; werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n, _, _ := poller.Count("q"); n < 100 {
		t.Fatalf("the writer committed only %d times beside %d polls: the race was not exercised", n, replies)
	}
}

// TestEnumerateFrameIsStrategyIndependent: a snapshot lists its rows in
// lexicographic order whatever maintains the query, so for one query and
// one stream the pinned rows and the bytes of the `enumerate` frame are
// the same on core and on ivm, version for version — and, at every
// version, the bytes the whole-snapshot reference encoder renders. The frame is put together from
// blocks encoded once per leaf: asking twice at a version encodes nothing
// and sends the same blocks, and after a commit exactly the blocks the
// previous frame did not carry are encoded.
func TestEnumerateFrameIsStrategyIndependent(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- E(x,y), T(y)")
	updates := workload.RandomStream(rand.New(rand.NewSource(41)), q.Schema(), 9, 600, 0.35)
	var reference [][]byte // the first strategy's frame after every batch
	for _, force := range []dyncq.Strategy{dyncq.StrategyCore, dyncq.StrategyIVM} {
		name := force.String()
		srv := newTestServer(t, Options{})
		ws := srv.Workspace()
		h, err := ws.RegisterQuery("q", q, dyncq.Options{Force: force})
		if err != nil {
			t.Fatal(err)
		}
		var frames [][]byte
		var prev frame // the frame enumerated one batch ago; holding it keeps its blocks' addresses taken
		for from := 0; from < len(updates); from += 15 {
			if _, _, err := ws.Commit(updates[from:min(from+15, len(updates))]); err != nil {
				t.Fatal(err)
			}
			before := srv.FrameCacheStats()
			f := srv.enumerateFrame(nil, h.Snapshot())
			first := srv.FrameCacheStats()
			again := srv.enumerateFrame(nil, h.Snapshot())
			second := srv.FrameCacheStats()
			fresh := uint64(0) // blocks the previous frame did not carry
			for _, b := range f.blocks {
				if !slices.ContainsFunc(prev.blocks, func(p []byte) bool { return &p[0] == &b[0] }) {
					fresh++
				}
			}
			if first.Misses-before.Misses != fresh || first.Hits-before.Hits != uint64(len(f.blocks))-fresh {
				t.Fatalf("%s: the enumerate at version %d moved the counters %+v -> %+v over %d blocks, %d of them new since the last frame",
					name, ws.Version(), before, first, len(f.blocks), fresh)
			}
			if second.Misses != first.Misses || second.Hits != first.Hits+uint64(len(f.blocks)) {
				t.Fatalf("%s: the second enumerate at version %d moved the counters %+v -> %+v, want %d blocks reused and none encoded",
					name, ws.Version(), first, second, len(f.blocks))
			}
			for k := range f.blocks {
				if &again.blocks[k][0] != &f.blocks[k][0] {
					t.Fatalf("%s: block %d of the second enumerate at version %d was encoded anew", name, k, ws.Version())
				}
			}
			prev = f
			frame := frameBytes(f)
			if want := encodeSnapshot(h.Snapshot()); !bytes.Equal(frame, want) {
				t.Fatalf("%s: enumerate frame at version %d differs from the whole-snapshot encoder's:\n%s\nvs\n%s", name, ws.Version(), frame, want)
			}
			frames = append(frames, frame)
			// The frame is the pinned rows, rendered: parse it back.
			rows := h.Snapshot().Tuples()
			lines := strings.Split(strings.TrimSuffix(string(frame), "\n"+frameEnd), "\n")[1:]
			if len(lines) != len(rows) {
				t.Fatalf("%s: frame carries %d tuple lines for %d pinned rows", name, len(lines), len(rows))
			}
			for i, line := range lines {
				if _, _, tuple, err := stream.Parse(line, nil, nil); err != nil || fmt.Sprint(tuple) != fmt.Sprint(rows[i]) {
					t.Fatalf("%s: frame line %d is %q (err %v), pinned row %v", name, i, line, err, rows[i])
				}
			}
		}
		if reference == nil {
			reference = frames
			continue
		}
		for i := range frames {
			if string(frames[i]) != string(reference[i]) {
				t.Fatalf("%s: enumerate frame after batch %d differs from core's:\n%s\nvs\n%s", name, i, frames[i], reference[i])
			}
		}
	}
}
