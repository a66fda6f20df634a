package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"dyncq/internal/dyndb"
	"dyncq/pkg/dyncq"
)

// encodeSnapshot is the whole-snapshot `enumerate` encoder the server used
// before frames were put together from per-leaf blocks, kept as the
// reference every frame must equal byte for byte.
func encodeSnapshot(s *dyncq.QuerySnapshot) []byte {
	name := s.Name()
	est := len(name) + 64 + s.Len()*(len(name)+4+21*s.Arity())
	buf := make([]byte, 0, est+len(frameEnd))
	buf = append(buf, "snapshot "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(s.Len()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, s.Version(), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(s.Arity()), 10)
	buf = append(buf, '\n')
	s.Enumerate(func(t []dyncq.Value) bool {
		buf = appendTupleLine(buf, '+', name, t)
		return true
	})
	buf = append(buf, frameEnd...)
	return buf
}

// frameBytes is what a frame puts on the wire.
func frameBytes(f frame) []byte {
	return append(append(bytes.Clone(f.head), bytes.Join(f.blocks, nil)...), f.tail...)
}

// feedFixture is a server holding the benchmark's `feed` query over
// 100k edges with a result of the given size, and two batches of eight
// updates — eight edges into the result, spread over its x range and so
// over the snapshot's leaves, and their deletion — that applied in turn
// (batches[i%2]) keep store and result at their loaded size.
func feedFixture(tb testing.TB, result int) (srv *Server, h *dyncq.Handle, batches [2][]dyncq.Update) {
	tb.Helper()
	const edges, ys = 100000, 20000 // every y carries 5 edges
	srv = New(Options{})
	tb.Cleanup(func() { srv.Close() })
	h, err := srv.Workspace().Register("feed", "Q(x,y) :- E(x,y), T(y)")
	if err != nil {
		tb.Fatal(err)
	}
	db := dyndb.New()
	for i := 0; i < edges; i++ {
		if _, err := db.Insert("E", dyncq.Value(2*i), dyncq.Value(i%ys)); err != nil {
			tb.Fatal(err)
		}
	}
	for y := 0; y < result*ys/edges; y++ {
		if _, err := db.Insert("T", dyncq.Value(y)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := srv.Workspace().Load(db); err != nil {
		tb.Fatal(err)
	}
	for j := 0; j < 8; j++ {
		x, y := dyncq.Value(2*(j*edges/8+j)+1), dyncq.Value(j*751%(result*ys/edges))
		batches[0], batches[1] = append(batches[0], dyndb.Insert("E", x, y)), append(batches[1], dyndb.Delete("E", x, y))
	}
	if got := h.Snapshot().Len(); got != result {
		tb.Fatalf("result holds %d tuples, want %d", got, result)
	}
	return srv, h, batches
}

// pollAfterCommit applies one of the fixture's batches and enumerates,
// returning the frame and how many of its blocks had to be encoded.
func pollAfterCommit(tb testing.TB, srv *Server, h *dyncq.Handle, batch []dyncq.Update) (f frame, encoded uint64) {
	tb.Helper()
	if n, err := srv.Workspace().ApplyBatch(batch); err != nil || n != len(batch) {
		tb.Fatalf("batch netted %d of %d (err %v)", n, len(batch), err)
	}
	before := srv.FrameCacheStats().Misses
	f = srv.enumerateFrame(h.Snapshot())
	return f, srv.FrameCacheStats().Misses - before
}

// feedSizes are the result sizes the flat-in-|Q(D)| checks run at.
var feedSizes = []int{3000, 30000, 100000}

// TestEnumerateEncodesOnlyRebuiltLeaves is the count form of the claim
// that an `enumerate` costs O(|Δ|) per polled version: after a commit of
// eight tuples a poll encodes at most 2·8+1 leaf blocks (a delta tuple
// rebuilds its leaf and may fold in or split off a neighbour) whether the
// result holds 3k, 30k or 100k rows — where the 3k-row result alone has
// more leaves than that, so a server that encodes past the leaf slot
// fails at every size. Every frame equals the reference encoder's bytes,
// and a block that is kept holds no slack.
func TestEnumerateEncodesOnlyRebuiltLeaves(t *testing.T) {
	for _, result := range feedSizes {
		t.Run(fmt.Sprintf("result=%dk", result/1000), func(t *testing.T) {
			srv, h, batches := feedFixture(t, result)
			cold := srv.enumerateFrame(h.Snapshot())
			if st := srv.FrameCacheStats(); st.Misses != uint64(len(cold.blocks)) || st.Hits != 0 || len(cold.blocks) <= 2*8+1 {
				t.Fatalf("the first enumerate of %d blocks read %+v, want every block encoded and more than 17 of them", len(cold.blocks), st)
			}
			most := uint64(0)
			for i := 0; i < 12; i++ {
				f, encoded := pollAfterCommit(t, srv, h, batches[i%2])
				if encoded == 0 || encoded > 2*8+1 {
					t.Fatalf("poll %d after an 8-tuple commit encoded %d of %d blocks, want between 1 and 17", i, encoded, len(f.blocks))
				}
				most = max(most, encoded)
				if got, want := frameBytes(f), encodeSnapshot(h.Snapshot()); !bytes.Equal(got, want) {
					t.Fatalf("poll %d: the frame of %d bytes differs from the reference encoder's %d", i, len(got), len(want))
				}
				for k, b := range f.blocks {
					if 4*cap(b) > 5*len(b) {
						t.Fatalf("poll %d: block %d holds %d bytes in a buffer of %d", i, k, len(b), cap(b))
					}
				}
			}
			t.Logf("%d rows in %d leaves: at most %d blocks encoded per poll", result, len(cold.blocks), most)
		})
	}
}

// TestEnumerateBlocksRaceWriter: four pollers put frames together while a
// writer commits, all filling the same leaves' slots. Every frame must be
// the reference encoder's rendering of the snapshot it was built from. Run
// with -race -count=10.
func TestEnumerateBlocksRaceWriter(t *testing.T) {
	srv, h, batches := feedFixture(t, 3000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				if got, want := frameBytes(srv.enumerateFrame(snap)), encodeSnapshot(snap); !bytes.Equal(got, want) {
					t.Errorf("poll %d at version %d: the frame of %d bytes differs from the reference encoder's %d", i, snap.Version(), len(got), len(want))
					return
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		if n, err := srv.Workspace().ApplyBatch(batches[i%2]); err != nil || n != 8 {
			t.Errorf("batch %d netted %d of 8 (err %v)", i, n, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentEnumerateOneVersion: two sessions enumerate one version
// at the same time over TCP, again and again. Both frames are written by
// reference from the same leaf blocks, and a vectored write consumes the
// slice it is given — so each session must write from a slice of its own,
// and every frame must arrive whole: the reference encoder's bytes.
func TestConcurrentEnumerateOneVersion(t *testing.T) {
	srv, h, _ := feedFixture(t, 30000)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	want := encodeSnapshot(h.Snapshot())
	const rounds = 20
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		go func() {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			got := make([]byte, len(want))
			for r := 0; r < rounds; r++ {
				if _, err := io.WriteString(conn, "enumerate feed\n"); err != nil {
					errs <- err
					return
				}
				if _, err := io.ReadFull(conn, got); err != nil {
					errs <- fmt.Errorf("round %d: %w", r, err)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("round %d: the frame differs from the reference encoder's", r)
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < 2; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Both sessions start on empty slots and may each encode a leaf; from
	// then on every block is reused.
	st, leaves := srv.FrameCacheStats(), uint64(len(srv.enumerateFrame(h.Snapshot()).blocks))
	if st.Hits+st.Misses != 2*rounds*leaves || st.Misses < leaves || st.Misses > 2*leaves {
		t.Fatalf("%d enumerates of %d blocks at one version read %+v, want each block encoded once or twice", 2*rounds, leaves, st)
	}
}

// gatedConn is a connection whose first Write waits for the gate; it
// records what was written and how many write deadlines were set.
type gatedConn struct {
	net.Conn // nil: the writer uses nothing but what is below
	entered  chan struct{}
	gate     chan struct{}

	mu        sync.Mutex
	written   []byte
	writes    int
	deadlines int
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	first := c.writes == 0
	c.writes++
	c.mu.Unlock()
	if first {
		close(c.entered)
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.written = append(c.written, b...)
	return len(b), nil
}

func (c *gatedConn) SetWriteDeadline(time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadlines++
	return nil
}

func (c *gatedConn) Close() error { return nil }

// TestWriterDrainsOutboxIntoOneWrite: while the writer is held up in a
// write, frames queue; once it returns, everything queued — single lines
// and a block-vectored frame alike — leaves as one burst under one
// deadline, in order, and the farewell sentinel is honoured only after
// all of it is on the wire.
func TestWriterDrainsOutboxIntoOneWrite(t *testing.T) {
	srv := newTestServer(t, Options{})
	conn := &gatedConn{entered: make(chan struct{}), gate: make(chan struct{})}
	sess := newSession(srv, conn)
	go sess.writer()
	defer sess.close()

	sess.send(frame{head: []byte("first\n")})
	<-conn.entered // the writer is inside the first burst's write
	shared := [][]byte{[]byte("+q(1)\n"), []byte("+q(2)\n")}
	sess.send(frame{head: okBeginLine})
	sess.send(frame{head: []byte("snapshot q 2 1 1\n"), blocks: shared, tail: frameEndBlock})
	sess.send(frame{head: []byte("ok committed 1 2\n")})
	sess.send(frame{head: []byte("bye\n")})
	sess.send(frame{})
	close(conn.gate)
	select {
	case <-sess.flushed:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer never reached the farewell sentinel")
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if want := "first\nok begin\nsnapshot q 2 1 1\n+q(1)\n+q(2)\n.\nok committed 1 2\nbye\n"; string(conn.written) != want {
		t.Fatalf("wrote %q, want %q", conn.written, want)
	}
	if conn.deadlines != 2 {
		t.Fatalf("%d write deadlines over two bursts (one frame, then four queued behind it)", conn.deadlines)
	}
	if string(shared[0]) != "+q(1)\n" || string(shared[1]) != "+q(2)\n" || string(okBeginLine) != "ok begin\n" {
		t.Fatalf("the write consumed blocks it only borrowed: %q, %q", shared, okBeginLine)
	}
}

// BenchmarkEnumerateFrame times what a poller one commit behind costs the
// server: an 8-tuple commit, the pin, and the `enumerate` frame put
// together from the leaves' blocks — at a 3k-, a 30k- and a 100k-row
// result. The frame is O(|result|) bytes on the wire whatever the server
// does; what must not grow with the result is the encoding, so each
// iteration checks the blocks it encoded against the 2·8+1 bound, and
// B/op shows the block vector (a slice header per leaf) as the only term
// that does.
func BenchmarkEnumerateFrame(b *testing.B) {
	for _, result := range feedSizes {
		b.Run(fmt.Sprintf("result=%dk", result/1000), func(b *testing.B) {
			srv, h, batches := feedFixture(b, result)
			srv.enumerateFrame(h.Snapshot())
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if f, encoded := pollAfterCommit(b, srv, h, batches[i%2]); encoded == 0 || encoded > 2*8+1 {
					b.Fatalf("poll %d after an 8-tuple commit encoded %d of %d blocks, want between 1 and 17", i, encoded, len(f.blocks))
				}
			}
		})
	}
}
