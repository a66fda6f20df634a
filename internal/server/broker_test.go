package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
	"dyncq/pkg/dyncq"
)

// subscribedBatches returns a batch of 64 update lines and its inverse:
// 32 S and 32 E inserts over fresh keys whose y the store's T holds, so
// that each commit adds 32 tuples to `Q(x,y) :- E(x,y), T(y)` and to the
// hard query, and the inverse takes them out.
func subscribedBatches() (ins, del []byte) {
	ins, del = []byte("begin\n"), []byte("begin\n")
	for j := 0; j < 32; j++ {
		for _, line := range []string{fmt.Sprintf("S(%d)\n", 2000+j), fmt.Sprintf("E(%d,%d)\n", 2000+j, j%50)} {
			ins = append(append(ins, '+'), line...)
			del = append(append(del, '-'), line...)
		}
	}
	return append(ins, "commit\n"...), append(del, "commit\n"...)
}

// loadSubscribed registers query text as "q" and loads 50 T, 1,000 S
// and 1,000 E tuples.
func loadSubscribed(t *testing.T, ws *dyncq.Workspace, text, strategy string) {
	t.Helper()
	if h, err := ws.Register("q", text); err != nil || h.Strategy().String() != strategy {
		t.Fatalf("register: %v, %v", h, err)
	}
	db := dyndb.New()
	for y := 0; y < 50; y++ {
		db.Insert("T", dyncq.Value(y))
	}
	for x := 0; x < 1000; x++ {
		db.Insert("S", dyncq.Value(x))
		db.Insert("E", dyncq.Value(x), dyncq.Value(x%50))
	}
	if err := ws.Load(db); err != nil {
		t.Fatal(err)
	}
}

// subscribeRaw subscribes conn to q and starts a goroutine that reads
// and discards its frames without allocating, recording the version of
// the last delta frame in last. A resync or anything but a delta frame
// after the reply sets bad. Once paused is held, the goroutine reads at
// most one more line.
func subscribeRaw(t *testing.T, conn net.Conn) (last *atomic.Uint64, bad *atomic.Bool, paused *sync.Mutex) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(time.Minute))
	br := bufio.NewReader(conn)
	if _, err := io.WriteString(conn, "subscribe q\n"); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, br, []byte("ok subscribed q "))
	last, bad, paused = new(atomic.Uint64), new(atomic.Bool), new(sync.Mutex)
	go func() {
		for {
			paused.Lock()
			paused.Unlock()
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			switch {
			case bytes.HasPrefix(line, []byte("delta q ")):
				v := uint64(0)
				for _, c := range line[len("delta q "):] {
					if c == ' ' {
						break
					}
					v = 10*v + uint64(c-'0')
				}
				last.Store(v)
			case line[0] == '+' || line[0] == '-' || string(line) == frameEnd:
			default:
				bad.Store(true)
			}
		}
	}()
	return last, bad, paused
}

// awaitVersion waits until a subscriber's reader saw the delta frame of
// version v.
func awaitVersion(t *testing.T, last *atomic.Uint64, v uint64) {
	for deadline := time.Now().Add(30 * time.Second); last.Load() != v; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the subscriber saw version %d, want %d", last.Load(), v)
		}
	}
}

// TestSessionSubscribedAllocationFree: a committing session and a
// session subscribed to the query it commits to, over net.Pipe and over
// loopback TCP, on a core-routed and on the ivm-routed hard query, make
// 2,000 commits of 64 update lines, each adding or taking out 32 result
// tuples, with 0 allocations on the four session goroutines
// (sessionAllocs): the backend lends the result delta, the broker encodes
// its frame into a buffer off the query's free list, and the subscriber's
// drain gives the buffer back once written. (Before, each commit
// allocated the delta's tuples and headers and a fresh frame.) The free
// list grows to the longest lag the subscriber has had: a lag longer
// than any before takes a fresh buffer for each frame past the old
// longest, which the list then keeps. So the warm-up stalls the
// subscriber once, and the server runs on one processor, as the
// benchmark's does, where the subscriber's writer goroutine mostly
// drains each frame before the next commit is read; on more processors
// its lag varies far more from commit to commit.
func TestSessionSubscribedAllocationFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const cycles = 1000
	ins, del := subscribedBatches()
	for _, transport := range sessionTransports {
		for _, q := range []struct{ strategy, text string }{{"core", "Q(x,y) :- E(x,y), T(y)"}, {"ivm", "Q(x,y) :- S(x), E(x,y), T(y)"}} {
			t.Run(transport+"/"+q.strategy, func(t *testing.T) {
				srv, dial := sessionServer(t, transport)
				ws := srv.Workspace()
				loadSubscribed(t, ws, q.text, q.strategy)
				last, bad, paused := subscribeRaw(t, dial())
				conn := dial()
				conn.SetDeadline(time.Now().Add(time.Minute))
				br := bufio.NewReader(conn)
				committed := []byte("ok committed 64 ")
				cycle := func() {
					for _, batch := range [][]byte{ins, del} {
						if _, err := conn.Write(batch); err != nil {
							t.Fatal(err)
						}
						expectReplies(t, br, okBeginLine, committed)
					}
				}
				// Warm the delta scratch, the frame buffers and the reply
				// buffer, with the subscriber stalled for 32 commits once: its
				// frames queue, and the buffers they leave on the free list
				// cover any lag up to that long.
				for range 50 {
					cycle()
				}
				paused.Lock()
				for range 16 {
					cycle()
				}
				paused.Unlock()
				for range 50 {
					cycle()
				}
				n, stacks := sessionAllocs(func() {
					for range cycles {
						cycle()
					}
					awaitVersion(t, last, ws.Version())
				})
				t.Logf("%d subscribed session commits: %d allocations on the sessions' goroutines", 2*cycles, n)
				if bad.Load() {
					t.Fatal("the subscriber read a resync or a line outside a delta frame")
				}
				if n != 0 {
					t.Fatalf("%d subscribed session commits allocated %d times, want 0:\n%s", 2*cycles, n, strings.Join(stacks, "\n"))
				}
			})
		}
	}
}

// TestSubscribedCommitsKeepHeapFlat: in process, over loopback TCP,
// 20,000 commits of 64 updates to a core-routed query with a subscriber
// move the heap by under 256 KB. HeapAlloc is read after a collection
// and again after the commits; since a collection in between would hide
// what they allocated, the heap's move is the bytes allocated meanwhile
// (TotalAlloc) when one ran. The test's own reads and writes allocate
// nothing. The server runs on one processor, as the benchmark's does (see
// TestSessionSubscribedAllocationFree): on four, the committer outruns
// the subscriber's writer goroutine until its outbox overflows into
// dropped frames and a resync.
func TestSubscribedCommitsKeepHeapFlat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const commits = 20000
	if testing.Short() {
		t.Skip("20,000 wire commits")
	}
	ins, del := subscribedBatches()
	srv, dial := sessionServer(t, "tcp")
	ws := srv.Workspace()
	loadSubscribed(t, ws, "Q(x,y) :- E(x,y), T(y)", "core")
	last, bad, _ := subscribeRaw(t, dial())
	conn := dial()
	conn.SetDeadline(time.Now().Add(time.Minute))
	br := bufio.NewReader(conn)
	committed := []byte("ok committed 64 ")
	commit := func(batch []byte) {
		if _, err := conn.Write(batch); err != nil {
			t.Fatal(err)
		}
		expectReplies(t, br, okBeginLine, committed)
	}
	for range 100 {
		commit(ins)
		commit(del)
	}
	awaitVersion(t, last, ws.Version())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range commits / 2 {
		commit(ins)
		commit(del)
	}
	awaitVersion(t, last, ws.Version())
	runtime.ReadMemStats(&after)
	moved := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if after.NumGC != before.NumGC {
		moved = int64(after.TotalAlloc - before.TotalAlloc)
	}
	t.Logf("%d subscribed commits: HeapAlloc %d → %d bytes, %d allocated, %d collections", commits, before.HeapAlloc, after.HeapAlloc,
		after.TotalAlloc-before.TotalAlloc, after.NumGC-before.NumGC)
	if bad.Load() {
		t.Fatal("the subscriber read a resync or a line outside a delta frame")
	}
	if moved >= 256<<10 {
		t.Fatalf("%d subscribed commits moved the heap by %d bytes, want under 256 KB", commits, moved)
	}
}

// TestFrameBufferPastBoundDropped: a frame buffer whose last reference
// is released goes back on its free list, and the next frame is encoded
// into it; one a large delta grew past keepFrame bytes is left to the
// collector instead; and the list takes buffers back only up to keepFree
// bytes.
func TestFrameBufferPastBoundDropped(t *testing.T) {
	var free freeFrames
	small := dyncq.DeltaEvent{Query: "q", Version: 1, Added: [][]dyncq.Value{{1, 2}}}
	large := dyncq.DeltaEvent{Query: "q", Version: 2}
	for i := 0; len(large.Added) == 0 || len(encodeDelta(nil, large)) <= keepFrame; i++ {
		large.Added = append(large.Added, []dyncq.Value{dyncq.Value(i), 1 << 40})
	}
	publish := func(ev dyncq.DeltaEvent) *frameBuf {
		fb := free.get()
		fb.b = encodeDelta(fb.b, ev)
		f := fb.frame()
		if !bytes.Equal(f.head, encodeDelta(nil, ev)) {
			t.Fatalf("frame %q, want %q", f.head, encodeDelta(nil, ev))
		}
		fb.release()
		return fb
	}
	fb := publish(small)
	if again := publish(small); again != fb {
		t.Fatal("a released buffer was not reused for the next frame")
	}
	if big := publish(large); big != fb || cap(big.b) <= keepFrame {
		t.Fatalf("the large frame went to buffer %p (%d bytes), want the free one %p grown past %d", big, cap(big.b), fb, keepFrame)
	}
	if next := free.get(); next == fb || free.bytes.Load() != 0 {
		t.Fatalf("a buffer grown past keepFrame went back on the free list (%d bytes held)", free.bytes.Load())
	}
	const size = keepFrame / 2
	var bufs []*frameBuf
	for range 2 * keepFree / size {
		fb := free.get()
		fb.b = make([]byte, 0, size)
		fb.frame()
		bufs = append(bufs, fb)
	}
	for _, fb := range bufs {
		fb.release()
	}
	held := 0
	for fb := free.head.Load(); fb != nil; fb = fb.next {
		held++
	}
	if held != keepFree/size || free.bytes.Load() != keepFree {
		t.Fatalf("after %d releases of %d-byte buffers the list holds %d buffers, %d bytes; want %d, %d",
			len(bufs), size, held, free.bytes.Load(), keepFree/size, keepFree)
	}
}

// subRecord is what a raw subscriber read: the bytes of each delta
// frame with its version, each resync line, each reply.
type subRecord struct {
	version uint64 // a delta frame's, or a resync's
	raw     []byte
	kind    string // "delta", "resync" or the reply line
}

// recorder reads a raw subscriber connection to its end, keeping every
// frame it reads. Once paused is held, it reads at most the line it is
// waiting for from the connection.
type recorder struct {
	mu      sync.Mutex
	records []subRecord
	last    atomic.Uint64 // the last delta frame's version
	paused  sync.Mutex
	done    chan struct{}
	err     error
}

func record(conn net.Conn) *recorder {
	r := &recorder{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		br := bufio.NewReaderSize(conn, 16)
		readLine := func() (string, error) {
			r.paused.Lock()
			r.paused.Unlock()
			return br.ReadString('\n')
		}
		// ended reports whether err ends the stream; one other than the end
		// of the connection, or its closing by the test, is kept in r.err.
		ended := func(err error, where string) bool {
			if err != nil && err != io.EOF && !errors.Is(err, io.ErrClosedPipe) {
				r.err = fmt.Errorf("%s: %v", where, err)
			}
			return err != nil
		}
		for {
			line, err := readLine()
			if ended(err, "between frames") {
				return
			}
			rec := subRecord{raw: []byte(line), kind: strings.TrimSuffix(line, "\n")}
			f := strings.Fields(line)
			switch f[0] {
			case "delta":
				rec.kind = "delta"
				rec.version, _ = strconv.ParseUint(f[2], 10, 64)
				n, _ := strconv.Atoi(f[3])
				m, _ := strconv.Atoi(f[4])
				for range n + m + 1 {
					l, err := readLine()
					if ended(err, fmt.Sprintf("in the delta frame of version %d", rec.version)) {
						return
					}
					rec.raw = append(rec.raw, l...)
				}
			case "resync":
				rec.kind = "resync"
				rec.version, _ = strconv.ParseUint(f[2], 10, 64)
			}
			r.mu.Lock()
			r.records = append(r.records, rec)
			r.mu.Unlock()
			if rec.kind == "delta" {
				r.last.Store(rec.version)
			}
		}
	}()
	return r
}

// TestRecycledFramesByteExact: frames are encoded into recycled buffers,
// so a buffer must not go back on the free list while any outbox still
// holds its frame or a write still reads it. Two subscribers, A and B,
// take one query's frames over net.Pipe from a server with 8-frame
// outboxes, while a third client commits random batches. B stalls
// mid-stream — its writer goroutine blocked in a write, its outbox full,
// its frames then dropped — while commits go on, A unsubscribes and
// subscribes again, and a third subscriber, C, stalled the same way,
// hangs up with frames in its outbox (a closed session's frames are never
// released). B then reads on: its queued frames, a resync, the deltas
// after it; and it quits mid-stream. Every delta frame A and B read must
// equal, byte for byte, encodeDelta of the oracle's delta at its version;
// each resync must name the versions B lost; versions must rise; B must
// read a resync and A the last version. Releasing a buffer before its
// write fails it.
func TestRecycledFramesByteExact(t *testing.T) {
	const text = "Q(x,y) :- E(x,y), T(y)"
	srv := newTestServer(t, Options{OutboxFrames: 8, WriteTimeout: -1})
	if _, err := srv.Workspace().Register("q", text); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse(text)
	writer := pipeClient(t, srv)
	subscriber := func() (net.Conn, *recorder) {
		cs, ss := net.Pipe()
		go srv.ServeConn(ss)
		t.Cleanup(func() { cs.Close() })
		cs.SetDeadline(time.Now().Add(time.Minute))
		if _, err := io.WriteString(cs, "subscribe q\n"); err != nil {
			t.Fatal(err)
		}
		r := record(cs)
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			r.mu.Lock()
			subscribed := len(r.records) > 0
			r.mu.Unlock()
			if subscribed {
				return cs, r
			}
			if time.Now().After(deadline) {
				t.Fatal("no reply to subscribe")
			}
		}
	}
	connA, a := subscriber()
	connB, b := subscriber()
	connC, c := subscriber()

	db := dyndb.New()
	want := map[uint64][]byte{} // the oracle's delta frame of each version
	result := func() [][]dyncq.Value {
		var out [][]dyncq.Value
		for _, t := range eval.Evaluate(q, db).Tuples() {
			out = append(out, []dyncq.Value(t))
		}
		slices.SortFunc(out, slices.Compare[[]dyncq.Value])
		return out
	}
	prev := result()
	rng := rand.New(rand.NewSource(55))
	commit := func(n int) {
		for range n {
			batch := workload.RandomStream(rng, q.Schema(), 12, 1+rng.Intn(12), 0.4)
			_, version, err := writer.ApplyBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range batch {
				db.Apply(u)
			}
			now := result()
			if _, seen := want[version]; seen || version == 0 {
				if !slices.EqualFunc(now, prev, slices.Equal[[]dyncq.Value]) {
					t.Fatalf("the result changed, but the version stayed %d", version)
				}
				continue
			}
			ev := dyncq.DeltaEvent{Query: "q", Version: version}
			for _, tuple := range now {
				if !slices.ContainsFunc(prev, func(p []dyncq.Value) bool { return slices.Equal(p, tuple) }) {
					ev.Added = append(ev.Added, tuple)
				}
			}
			for _, tuple := range prev {
				if !slices.ContainsFunc(now, func(n []dyncq.Value) bool { return slices.Equal(n, tuple) }) {
					ev.Removed = append(ev.Removed, tuple)
				}
			}
			want[version], prev = encodeDelta(nil, ev), now
		}
	}
	send := func(conn net.Conn, req string) {
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
	}

	commit(20)
	b.paused.Lock()
	c.paused.Lock()
	commit(15)
	send(connA, "unsubscribe q\n")
	commit(5)
	send(connA, "subscribe q\n")
	commit(15)
	connC.Close()
	c.paused.Unlock()
	commit(15)
	b.paused.Unlock()
	commit(10)
	send(connB, "quit\n")
	commit(20)
	// A may lag at the tail too, its last frames dropped: the resync and
	// the deltas after it come with later commits.
	final, err := writer.Version()
	for deadline := time.Now().Add(30 * time.Second); err == nil && a.last.Load() != final; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("A read through version %d, want %d", a.last.Load(), final)
		}
		commit(1)
		final, err = writer.Version()
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*recorder{b, c} {
		select {
		case <-r.done:
		case <-time.After(30 * time.Second):
			t.Fatal("a subscriber's connection did not end")
		}
	}
	connA.Close()
	<-a.done

	check := func(name string, r *recorder) (resyncs int) {
		t.Helper()
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		var lastDelta uint64
		resubscribed := false // since the last delta
		for _, rec := range r.records {
			if strings.HasPrefix(rec.kind, "ok subscribed ") {
				resubscribed = true
			}
			switch rec.kind {
			case "delta":
				resubscribed = false
				if rec.version <= lastDelta {
					t.Fatalf("%s: delta of version %d after version %d", name, rec.version, lastDelta)
				}
				if !bytes.Equal(rec.raw, want[rec.version]) {
					t.Fatalf("%s: the delta frame of version %d reads\n%q\nwant\n%q", name, rec.version, rec.raw, want[rec.version])
				}
				lastDelta = rec.version
			case "resync":
				// A resync counts the versions dropped since the last delta
				// queued — unless a subscribe came between, whose first
				// frames may be of any version after its reply's.
				resyncs++
				d := rec.version - lastDelta
				if resubscribed {
					fmt.Sscanf(string(rec.raw), "resync q %d %d", new(uint64), &d)
				}
				wantLine := encodeResync(nil, "q", rec.version, d)
				if !bytes.Equal(rec.raw, wantLine) || d == 0 || d > rec.version-lastDelta {
					t.Fatalf("%s: resync %q after the delta of version %d, want %q", name, rec.raw, lastDelta, wantLine)
				}
				lastDelta, resubscribed = rec.version, false
			}
		}
		t.Logf("%s read %d records, %d resyncs, through version %d", name, len(r.records), resyncs, lastDelta)
		return resyncs
	}
	check("A", a)
	if check("B", b) == 0 {
		t.Fatal("B never read a resync: its stall dropped no frame")
	}
	check("C", c)
	// A frame a commit queued while B's session was saying bye may follow
	// it: the subscription ends when the session closes.
	if !slices.ContainsFunc(b.records, func(rec subRecord) bool { return rec.kind == "bye" }) {
		t.Fatal("B read no bye")
	}
	if a.last.Load() != final {
		t.Fatalf("A read through version %d, want %d", a.last.Load(), final)
	}
}
