package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyncq/internal/dyndb"
	"dyncq/internal/stream"
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
		buf = stream.AppendTupleLine(buf, dyncq.OpInsert, name, t)
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

// poll enumerates the query's current version, returning the frame, how
// many of its blocks had to be filled and how many tuple lines that
// formatted.
func poll(srv *Server, h *dyncq.Handle) (f frame, filled, formatted uint64) {
	blocks, rows := srv.FrameCacheStats().Misses, srv.rowsFormatted.Load()
	f = srv.enumerateFrame(nil, h.Snapshot())
	return f, srv.FrameCacheStats().Misses - blocks, srv.rowsFormatted.Load() - rows
}

// commit applies a batch that must net every one of its updates.
func commit(tb testing.TB, srv *Server, batch []dyncq.Update) {
	tb.Helper()
	if n, _, err := srv.Workspace().Commit(batch); err != nil || n != len(batch) {
		tb.Fatalf("batch netted %d of %d (err %v)", n, len(batch), err)
	}
}

// pollAfterCommit applies one of the fixture's batches and enumerates.
func pollAfterCommit(tb testing.TB, srv *Server, h *dyncq.Handle, batch []dyncq.Update) (f frame, filled, formatted uint64) {
	tb.Helper()
	commit(tb, srv, batch)
	return poll(srv, h)
}

// feedSizes are the result sizes the flat-in-|Q(D)| checks run at.
var feedSizes = []int{3000, 30000, 100000}

// toggle returns the batch that inserts the edges into E and the one that
// deletes them again.
func toggle(edges [][2]dyncq.Value) (ins, del []dyncq.Update) {
	for _, e := range edges {
		ins, del = append(ins, dyndb.Insert("E", e[0], e[1])), append(del, dyndb.Delete("E", e[0], e[1]))
	}
	return ins, del
}

// splitToggle is toggle for 200 result rows of a feedFixture that share
// one x and so land in one leaf, which they split.
func splitToggle() (ins, del []dyncq.Update) {
	var edges [][2]dyncq.Value
	for y := dyncq.Value(0); y < 200; y++ {
		edges = append(edges, [2]dyncq.Value{3001, y})
	}
	return toggle(edges)
}

// TestEnumerateEncodesOnlyRebuiltLeaves is the count form of the claim
// that an `enumerate` costs O(|Δ|) per polled version: a poll formats at
// most the tuple lines of the tuples added since the previous encoded poll
// — a rebuilt leaf's surviving rows are spliced from the blocks of the
// leaves it came from — whether the result holds 3k, 30k or 100k rows.
// A commit of d tuples has at most 2d+1 leaf blocks filled. After each
// 8-tuple commit at most 8 rows are formatted, after the commit taking
// them out again none; a poll after four commits that were pinned but not
// enumerated formats at most the 4·8 tuples they added; a commit of 200
// tuples into one leaf splits it, and the poll after formats at most
// those 200. Every frame
// equals the reference encoder's bytes, and a block that is kept holds no
// slack. With the splice bypassed every rebuilt leaf is formatted whole,
// ≈ 125 rows and more per leaf, and the test fails at every size.
func TestEnumerateEncodesOnlyRebuiltLeaves(t *testing.T) {
	for _, result := range feedSizes {
		t.Run(fmt.Sprintf("result=%dk", result/1000), func(t *testing.T) {
			srv, h, batches := feedFixture(t, result)
			cold, filled, formatted := poll(srv, h)
			if st := srv.FrameCacheStats(); filled != uint64(len(cold.blocks)) || st.Hits != 0 || len(cold.blocks) <= 2*8+1 || formatted != uint64(result) {
				t.Fatalf("the first enumerate of %d blocks read %+v and formatted %d rows, want every block and row encoded and more than 17 blocks", len(cold.blocks), st, formatted)
			}
			// changed is the tuples the commits since the last poll added
			// or took out, added those they added.
			check := func(where string, f frame, filled, formatted, changed, added uint64) {
				t.Helper()
				if filled > 2*changed+1 || formatted > added {
					t.Fatalf("%s: filled %d of %d blocks and formatted %d rows, for %d tuples changed and %d added since the last poll", where, filled, len(f.blocks), formatted, changed, added)
				}
				if got, want := frameBytes(f), encodeSnapshot(h.Snapshot()); !bytes.Equal(got, want) {
					t.Fatalf("%s: the frame of %d bytes differs from the reference encoder's %d", where, len(got), len(want))
				}
				for k, b := range f.blocks {
					if 4*cap(b) > 5*len(b) {
						t.Fatalf("%s: block %d holds %d bytes in a buffer of %d", where, k, len(b), cap(b))
					}
				}
			}
			most := uint64(0)
			for i := 0; i < 12; i++ {
				f, filled, formatted := pollAfterCommit(t, srv, h, batches[i%2])
				check(fmt.Sprintf("poll %d", i), f, filled, formatted, 8, uint64(8*(1-i%2)))
				most = max(most, formatted)
			}
			// Four commits of eight new tuples each, every version pinned and
			// none enumerated; then one commit taking them all out.
			ys := dyncq.Value(result * 20000 / 100000)
			var spread [][2]dyncq.Value
			for j := 0; j < 32; j++ {
				spread = append(spread, [2]dyncq.Value{dyncq.Value(2*(j*100000/32+j) + 3), dyncq.Value(j*37) % ys})
			}
			ins, del := toggle(spread)
			for c := 0; c < 4; c++ {
				commit(t, srv, ins[8*c:8*c+8])
				h.Snapshot()
			}
			f, filled, formatted := poll(srv, h)
			check("after four unread commits", f, filled, formatted, 32, 32)
			f, filled, formatted = pollAfterCommit(t, srv, h, del)
			check("after the commit taking them out", f, filled, formatted, 32, 0)
			ins, del = splitToggle()
			before := len(f.blocks)
			f, filled, formatted = pollAfterCommit(t, srv, h, ins)
			if len(f.blocks) <= before {
				t.Fatalf("200 rows into one leaf left %d leaves, %d before: no split", len(f.blocks), before)
			}
			check("after a split", f, filled, formatted, 200, 200)
			f, filled, formatted = pollAfterCommit(t, srv, h, del)
			check("after the split rows left", f, filled, formatted, 200, 0)
			t.Logf("%d rows in %d leaves: at most %d rows formatted per poll after an 8-tuple commit", result, len(cold.blocks), most)
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
				if got, want := frameBytes(srv.enumerateFrame(nil, snap)), encodeSnapshot(snap); !bytes.Equal(got, want) {
					t.Errorf("poll %d at version %d: the frame of %d bytes differs from the reference encoder's %d", i, snap.Version(), len(got), len(want))
					return
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		if n, _, err := srv.Workspace().Commit(batches[i%2]); err != nil || n != 8 {
			t.Errorf("batch %d netted %d of 8 (err %v)", i, n, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestEnumerateSpliceRaceWriter: pollers race a writer over leaves whose
// plans share their sources. The writer alternates commits that add 200
// rows under one x — splitting their leaf, so that two or three pieces
// splice out of one old block — and eight scattered rows, with commits
// taking them all out again, and pins each version without enumerating
// it, so that the plans of later versions take in those of earlier ones. Each poller enumerates the
// newest version and, every third poll, a version it held back, so that
// fills of a leaf and of the leaves spliced from it race in both orders.
// Every frame must be the reference encoder's rendering of its snapshot.
// Run with -race -count=10.
func TestEnumerateSpliceRaceWriter(t *testing.T) {
	srv, h, batches := feedFixture(t, 3000)
	ins, del := splitToggle()
	ins, del = append(ins, batches[0]...), append(del, batches[1]...)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := h.Snapshot()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				if i%3 == 2 {
					snap, held = held, snap
				}
				if got, want := frameBytes(srv.enumerateFrame(nil, snap)), encodeSnapshot(snap); !bytes.Equal(got, want) {
					t.Errorf("poll %d at version %d: the frame of %d bytes differs from the reference encoder's %d", i, snap.Version(), len(got), len(want))
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		batch := ins
		if i%2 == 1 {
			batch = del
		}
		if n, _, err := srv.Workspace().Commit(batch); err != nil || n != len(batch) {
			t.Errorf("batch %d netted %d of %d (err %v)", i, n, len(batch), err)
			break
		}
		h.Snapshot()
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
	st, leaves := srv.FrameCacheStats(), uint64(len(srv.enumerateFrame(nil, h.Snapshot()).blocks))
	if st.Hits+st.Misses != 2*rounds*leaves || st.Misses < leaves || st.Misses > 2*leaves {
		t.Fatalf("%d enumerates of %d blocks at one version read %+v, want each block encoded once or twice", 2*rounds, leaves, st)
	}
}

// gatedConn is a connection whose first Write waits for the gate; it
// records what was written and how many write deadlines were set.
type gatedConn struct {
	net.Conn // nil: a drain uses nothing but what is below
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

// TestWriterDrainsOutboxIntoOneWrite: while the writer goroutine is held
// up in the write of a broker frame, replies queue; the reader's farewell
// drain waits for that write and then takes everything queued — single
// lines and a block-vectored frame alike — and writes it as one burst
// under one deadline, in order, its own last line included.
func TestWriterDrainsOutboxIntoOneWrite(t *testing.T) {
	srv := newTestServer(t, Options{})
	conn := &gatedConn{entered: make(chan struct{}), gate: make(chan struct{})}
	sess := newSession(srv, conn)
	go sess.writer()
	defer sess.close()

	sess.trySend(frame{head: []byte("first\n")})
	<-conn.entered // the writer is inside the first burst's write
	shared := [][]byte{[]byte("+q(1)\n"), []byte("+q(2)\n")}
	sess.send(frame{head: okBeginLine})
	sess.send(frame{head: []byte("snapshot q 2 1 1\n"), blocks: shared, tail: frameEndBlock})
	sess.send(frame{head: []byte("ok committed 1 2\n")})
	farewell := make(chan struct{})
	go func() {
		sess.farewell("bye")
		close(farewell)
	}()
	close(conn.gate)
	select {
	case <-farewell:
	case <-time.After(5 * time.Second):
		t.Fatal("the farewell never left")
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

// spliceOps builds FuzzLeafSplice inputs: commit(n, seed, shape) is a
// commit of n tuples (1..256), poll an enumerate, pin a pin without one,
// evict a dropped cache.
type spliceOps []byte

func (o spliceOps) commit(n int, seed, shape byte) spliceOps {
	return append(o, 0, byte(n-1), seed, shape)
}
func (o spliceOps) poll() spliceOps  { return append(o, 3) }
func (o spliceOps) pin() spliceOps   { return append(o, 5) }
func (o spliceOps) evict() spliceOps { return append(o, 7) }

// Commit shapes: the low two bits pick deletes, a mix or inserts, the
// next two where x falls, 0xF0 deletes every edge.
const (
	shapeDelete, shapeMix, shapeInsert = 0, 1, 2
	xWide, xCluster, xNarrow, xExtreme = 0 << 2, 1 << 2, 2 << 2, 3 << 2
	shapeClear                         = 0xF0
)

// FuzzLeafSplice drives the feed query's snapshot leaves through commits
// of up to 2×256 tuples — so leaves split and fold — that insert, delete,
// or clear every edge and refill, over values of every sign and size with
// math.MinInt64 and math.MaxInt64 among them, interleaved with polls,
// pins that skip a poll, and evictions. At every poll the `enumerate`
// frame must be the reference encoder's bytes, and the rows formatted must
// be at most the result tuples added since the last poll, or the whole
// result when a cold pin came since. Seeds run in tier-1; explore with go
// test -fuzz=FuzzLeafSplice ./internal/server.
func FuzzLeafSplice(f *testing.F) {
	f.Add([]byte(spliceOps{}.commit(256, 1, shapeInsert|xCluster).poll().commit(256, 2, shapeInsert|xCluster).poll().
		commit(100, 3, shapeMix|xWide).pin().commit(100, 4, shapeMix|xNarrow).pin().commit(51, 5, shapeDelete|xWide).poll().
		commit(1, 0, shapeClear).poll().commit(201, 6, shapeInsert|xExtreme).poll().commit(150, 7, shapeInsert|xNarrow).poll()))
	f.Add([]byte(spliceOps{}.commit(41, 8, shapeInsert|xExtreme).poll().commit(21, 9, shapeMix|xExtreme).poll().
		evict().poll().commit(6, 10, shapeInsert|xNarrow).pin().commit(6, 11, shapeDelete).poll().commit(1, 0, shapeClear).pin().poll()))
	decay := spliceOps{}.commit(200, 12, shapeInsert|xNarrow).poll()
	for k := byte(0); k < 12; k++ {
		decay = decay.commit(256, 13+k, shapeMix|xWide)
	}
	f.Add([]byte(decay.poll().commit(256, 40, shapeInsert|xCluster).pin().commit(256, 41, shapeDelete).pin().poll()))
	f.Add([]byte{})
	ts := []dyncq.Value{math.MinInt64, math.MinInt64 + 1, -1000, -1, 0, 1, 7, 1000, math.MaxInt64 - 1, math.MaxInt64}
	extremes := []dyncq.Value{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := New(Options{})
		defer srv.Close()
		ws := srv.Workspace()
		h, err := ws.Register("feed", "Q(x,y) :- E(x,y), T(y)")
		if err != nil {
			t.Fatal(err)
		}
		var load []dyncq.Update
		for _, y := range ts {
			load = append(load, dyndb.Insert("T", y))
		}
		commit(t, srv, load)
		var added atomic.Int64 // result tuples added since the last poll
		if err := ws.CaptureDeltas("feed", func(ev dyncq.DeltaEvent) { added.Add(int64(len(ev.Added))) }); err != nil {
			t.Fatal(err)
		}
		var edges [][2]dyncq.Value // the store's E, and where each edge sits in it
		at := map[[2]dyncq.Value]int{}
		misses := h.SnapshotCacheStats().Misses
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch op % 8 {
			case 0, 1, 2:
				var arg [3]byte
				data = data[copy(arg[:], data):]
				n, rng, shape := int(arg[0])+1, rand.New(rand.NewSource(int64(arg[1])<<8|int64(arg[2]))), arg[2]
				var batch []dyncq.Update
				if shape == shapeClear {
					for len(edges) > 0 {
						k := min(len(edges), 256)
						for _, e := range edges[len(edges)-k:] {
							batch = append(batch, dyndb.Delete("E", e[0], e[1]))
							delete(at, e)
						}
						edges = edges[:len(edges)-k]
						commit(t, srv, batch)
						batch = batch[:0]
					}
					continue
				}
				inBatch := map[[2]dyncq.Value]bool{}
				for j := 0; j < n; j++ {
					if mode := shape & 3; (mode == shapeDelete || mode == shapeMix && rng.Intn(2) == 0) && len(edges) > 0 {
						e := edges[rng.Intn(len(edges))]
						if !inBatch[e] {
							inBatch[e] = true
							batch = append(batch, dyndb.Delete("E", e[0], e[1]))
						}
						continue
					}
					var e [2]dyncq.Value
					switch shape & 0xc {
					case xWide:
						e[0] = dyncq.Value(rng.Uint64())
					case xCluster:
						e[0] = []dyncq.Value{math.MinInt64, -500, 0, 500, math.MaxInt64 - 64}[arg[1]%5] + dyncq.Value(rng.Intn(64))
					case xNarrow:
						e[0] = dyncq.Value(rng.Intn(601) - 300)
					default:
						e[0] = extremes[rng.Intn(len(extremes))]
					}
					if e[1] = ts[rng.Intn(len(ts))]; rng.Intn(10) == 0 {
						e[1] = dyncq.Value(rng.Intn(5)) + 2 // outside T: the result does not move
					}
					if _, stored := at[e]; !stored && !inBatch[e] {
						inBatch[e] = true
						batch = append(batch, dyndb.Insert("E", e[0], e[1]))
					}
				}
				commit(t, srv, batch)
				for _, u := range batch {
					e := [2]dyncq.Value{u.Tuple[0], u.Tuple[1]}
					if i, stored := at[e]; stored {
						last := edges[len(edges)-1]
						edges[i], at[last] = last, i
						edges = edges[:len(edges)-1]
						delete(at, e)
					} else {
						at[e] = len(edges)
						edges = append(edges, e)
					}
				}
			case 3, 4:
				misses = splicePoll(t, srv, h, misses, added.Swap(0))
			case 5, 6:
				h.Snapshot()
			case 7:
				h.EvictSnapshot()
			}
		}
		splicePoll(t, srv, h, misses, added.Swap(0))
	})
}

// splicePoll is one FuzzLeafSplice poll: the frame must be the reference
// encoder's, and the rows formatted at most added, or the whole result if
// a pin since the last poll (misses, the count then) was cold. It returns
// the miss count now.
func splicePoll(t *testing.T, srv *Server, h *dyncq.Handle, misses uint64, added int64) uint64 {
	t.Helper()
	snap := h.Snapshot()
	now := h.SnapshotCacheStats().Misses
	bound := uint64(added)
	if now != misses {
		bound = uint64(snap.Len())
	}
	before := srv.rowsFormatted.Load()
	got := frameBytes(srv.enumerateFrame(nil, snap))
	if formatted := srv.rowsFormatted.Load() - before; formatted > bound {
		t.Fatalf("version %d (%d rows): the poll formatted %d rows, want at most %d (added %d, cold pin %v)", snap.Version(), snap.Len(), formatted, bound, added, now != misses)
	}
	if want := encodeSnapshot(snap); !bytes.Equal(got, want) {
		t.Fatalf("version %d: the frame of %d bytes differs from the reference encoder's %d", snap.Version(), len(got), len(want))
	}
	return now
}

// BenchmarkEnumerateFrame times what a poller one commit behind costs the
// server: an 8-tuple commit, the pin, and the `enumerate` frame put
// together from the leaves' blocks — at a 3k-, a 30k- and a 100k-row
// result. The frame is O(|result|) bytes on the wire whatever the server
// does; what must not grow with the result is the formatting, so each
// iteration checks that it formatted at most the 8 rows the commit added
// (half the commits add them, half take them out), rows-formatted/op
// reports the mean, and B/op shows the block vector (a slice header per
// leaf) as the only term that grows with the result.
func BenchmarkEnumerateFrame(b *testing.B) {
	for _, result := range feedSizes {
		b.Run(fmt.Sprintf("result=%dk", result/1000), func(b *testing.B) {
			srv, h, batches := feedFixture(b, result)
			srv.enumerateFrame(nil, h.Snapshot())
			b.ReportAllocs()
			total := uint64(0)
			for i := 0; b.Loop(); i++ {
				_, _, formatted := pollAfterCommit(b, srv, h, batches[i%2])
				if formatted > 8 {
					b.Fatalf("poll %d after an 8-tuple commit formatted %d rows, want at most 8", i, formatted)
				}
				total += formatted
			}
			b.ReportMetric(float64(total)/float64(b.N), "rows-formatted/op")
		})
	}
}
