package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dyncq/internal/allocs"
	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
	"dyncq/pkg/dyncq"
)

// sessionFrames are the functions a session's two goroutines run
// under: an allocation with neither on its stack is the client's, the
// test's or the runtime's, not the session's.
var sessionFrames = []string{"dyncq/internal/server.(*session).run", "dyncq/internal/server.(*session).writer"}

// sessionAllocs runs fn and returns how many allocations made meanwhile
// have a session's goroutine on their stack, but are not the runtime's
// cache refills, with one description per allocating stack
// (allocs.CountExcept).
func sessionAllocs(fn func()) (int64, []string) {
	return allocs.CountExcept(fn, runtimeRefills, sessionFrames...)
}

// runtimeRefills are the runtime functions that allocate, as an
// allocation's innermost frame, to refill a cache of their own rather
// than for the session: a processor's pool of channel waiters, which
// every collection empties centrally (the counter's own included), and a
// type assertion's or type switch's cache of the types its site has
// seen, which the runtime rebuilds about once per thousand misses until
// it holds them. The session's channel operations and
// net.Buffers.WriteTo meet them at random, 1–3 times per counted window.
var runtimeRefills = []string{"runtime.acquireSudog", "runtime.typeAssert", "runtime.interfaceSwitch"}

// sessionTransports are the connections the session allocation gates
// run over: net.Pipe without a write deadline, which net.Pipe would arm
// with a fresh timer per burst, and loopback TCP with the default
// WriteTimeout, the path `dyncq serve` runs.
var sessionTransports = []string{"pipe", "tcp"}

// sessionConn starts a server and opens one session on it over the
// transport, "pipe" or "tcp".
func sessionConn(t *testing.T, transport string) (*Server, net.Conn) {
	t.Helper()
	if transport == "tcp" {
		srv, addr := startTCPServer(t, Options{})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return srv, conn
	}
	srv := newTestServer(t, Options{WriteTimeout: -1})
	cs, ss := net.Pipe()
	go srv.ServeConn(ss)
	t.Cleanup(func() { cs.Close() })
	return srv, cs
}

// expectReplies reads one reply line per prefix and fails unless each
// starts with its prefix.
func expectReplies(t *testing.T, br *bufio.Reader, prefixes ...[]byte) {
	t.Helper()
	for _, want := range prefixes {
		line, err := br.ReadSlice('\n')
		if err != nil || !bytes.HasPrefix(line, want) {
			t.Fatalf("reply %q (%v), want %q…", line, err, want)
		}
	}
}

// TestSessionBatchAllocationFree: a warmed session commits a pre-encoded
// batch of update lines and its inverse, over net.Pipe and over loopback
// TCP, and the session's whole part of the round trip — scan, parse,
// commit on a core-routed query, reply, write — allocates nothing at 64
// and at 512 lines: the lines are parsed where the scanner holds them,
// into the session's arena, with interned relation names, the commit
// allocates nothing, and `ok committed` is written into the session's
// reply buffer (2 allocations per commit when each reply was a fresh
// slice and `begin` was copied into a string). It counts every
// allocation on the session's goroutines over 100 cycles (allocs.Count),
// so one in 200 commits fails it and prints its stack.
func TestSessionBatchAllocationFree(t *testing.T) {
	for _, transport := range sessionTransports {
		for _, lines := range []int{64, 512} {
			t.Run(fmt.Sprintf("%s/lines=%d", transport, lines), func(t *testing.T) {
				srv, conn := sessionConn(t, transport)
				ws := srv.Workspace()
				if h, err := ws.Register("star", "Q(y) :- E(x,y), T(y)"); err != nil || h.Strategy() != dyncq.StrategyCore {
					t.Fatalf("register: %v, %v", h, err)
				}
				db := dyndb.New()
				for i := 0; i < 4000; i++ {
					db.Insert("E", dyncq.Value(i%1000), dyncq.Value(i%50))
					db.Insert("T", dyncq.Value(i%50))
				}
				if err := ws.Load(db); err != nil {
					t.Fatal(err)
				}
				// Fresh tuples over keys the store holds; the inverse restores it.
				var ins, del []byte
				for _, b := range []*[]byte{&ins, &del} {
					*b = append(*b, "begin\n"...)
				}
				for j := 0; j < lines; j++ {
					line := fmt.Sprintf("E(%d,%d)\n", j%1000, 1000+j)
					if j%2 == 1 {
						line = fmt.Sprintf("T(%d)\n", 1000+j)
					}
					ins = append(append(ins, '+'), line...)
					del = append(append(del, '-'), line...)
				}
				for _, b := range []*[]byte{&ins, &del} {
					*b = append(*b, "commit\n"...)
				}
				committed := []byte("ok committed " + strconv.Itoa(lines) + " ")
				conn.SetDeadline(time.Now().Add(time.Minute))
				br := bufio.NewReader(conn)
				commit := func(batch []byte) {
					if _, err := conn.Write(batch); err != nil {
						t.Fatal(err)
					}
					expectReplies(t, br, okBeginLine, committed)
				}
				cycle := func() { commit(ins); commit(del) }
				cycle() // warm the arena, the pending slice, the name table, the store and the reply buffer
				cycle()
				const cycles = 100
				n, stacks := sessionAllocs(func() {
					for range cycles {
						cycle()
					}
				})
				t.Logf("%d session commits of %d lines: %d allocations on the session's goroutines", 2*cycles, lines, n)
				if n != 0 {
					t.Fatalf("%d session commits of %d lines allocated %d times, want 0:\n%s", 2*cycles, lines, n, strings.Join(stacks, "\n"))
				}
			})
		}
	}
}

// TestSessionPollAllocationFree: a warmed poller's `count` and `answer`
// requests, between commits and back to back, allocate nothing on the
// session's goroutines over net.Pipe and over loopback TCP: the query
// name is looked up without a copy and the replies are written into the
// session's reply buffer.
func TestSessionPollAllocationFree(t *testing.T) {
	for _, transport := range sessionTransports {
		t.Run(transport, func(t *testing.T) {
			srv, conn := sessionConn(t, transport)
			if _, err := srv.Workspace().Register("star", "Q(y) :- E(x,y), T(y)"); err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(time.Minute))
			br := bufio.NewReader(conn)
			requests := []byte("count star\nanswer star\n")
			batches := [][]byte{[]byte("begin\n+E(1,2)\n+T(2)\ncommit\n"), []byte("begin\n-E(1,2)\n-T(2)\ncommit\n")}
			counts := [][]byte{[]byte("ok count star 1 "), []byte("ok count star 0 ")}
			answers := [][]byte{[]byte("ok answer star true "), []byte("ok answer star false ")}
			poll := func(k int) {
				if _, err := conn.Write(requests); err != nil {
					t.Fatal(err)
				}
				expectReplies(t, br, counts[k], answers[k])
			}
			cycle := func() {
				for k, batch := range batches {
					if _, err := conn.Write(batch); err != nil {
						t.Fatal(err)
					}
					expectReplies(t, br, okBeginLine, []byte("ok committed 2 "))
					poll(k)
					poll(k)
				}
			}
			cycle()
			cycle()
			const cycles = 100
			n, stacks := sessionAllocs(func() {
				for range cycles {
					cycle()
				}
			})
			t.Logf("%d polls: %d allocations on the session's goroutines", 4*cycles, n)
			if n != 0 {
				t.Fatalf("%d polls and %d commits allocated %d times, want 0:\n%s", 4*cycles, 2*cycles, n, strings.Join(stacks, "\n"))
			}
		})
	}
}

// TestSessionChurnAllocationFree: a wire session commits 64-update
// batches of never-seen tuples at a fixed store size — each deletes the
// 32 oldest E tuples of a sliding window and inserts 32 new ones — and,
// after one full turnover of the window, 2,000 such commits allocate
// nothing on the session's goroutines, on a core-routed and on the
// ivm-routed hard query: the wire's part of the churn shape
// TestChurnAllocationFree holds for the library.
func TestSessionChurnAllocationFree(t *testing.T) {
	const (
		xs, ys  = 1000, 200
		window  = 8192
		perSide = 32
		warm    = window / perSide
		commits = 2000
	)
	// The i-th E tuple: every (x, y) pair is new for i below xs·ys, and any
	// window consecutive tuples give every x and every y several tuples.
	tuple := func(i int) string {
		x := i % xs
		return fmt.Sprintf("E(%d,%d)\n", x, (x+i/xs)%ys)
	}
	batches := make([][]byte, warm+commits)
	for k := range batches {
		b := []byte("begin\n")
		for j := 0; j < perSide; j++ {
			b = append(append(b, '-'), tuple(k*perSide+j)...)
			b = append(append(b, '+'), tuple(window+k*perSide+j)...)
		}
		batches[k] = append(b, "commit\n"...)
	}
	for _, q := range []struct{ name, text string }{{"core", "Q(y) :- E(x,y), T(y)"}, {"ivm", "Q(x,y) :- S(x), E(x,y), T(y)"}} {
		t.Run(q.name, func(t *testing.T) {
			srv, conn := sessionConn(t, "pipe")
			ws := srv.Workspace()
			if h, err := ws.Register(q.name, q.text); err != nil || h.Strategy().String() != q.name {
				t.Fatalf("register: %v, %v", h, err)
			}
			db := dyndb.New()
			for x := 0; x < xs; x++ {
				db.Insert("S", dyncq.Value(x))
			}
			for y := 0; y < ys; y++ {
				db.Insert("T", dyncq.Value(y))
			}
			for i := 0; i < window; i++ {
				x := i % xs
				db.Insert("E", dyncq.Value(x), dyncq.Value((x+i/xs)%ys))
			}
			if err := ws.Load(db); err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(time.Minute))
			br := bufio.NewReader(conn)
			committed := []byte(fmt.Sprintf("ok committed %d ", 2*perSide))
			commit := func(batch []byte) {
				if _, err := conn.Write(batch); err != nil {
					t.Fatal(err)
				}
				expectReplies(t, br, okBeginLine, committed)
			}
			for _, b := range batches[:warm] {
				commit(b)
			}
			n, stacks := sessionAllocs(func() {
				for _, b := range batches[warm:] {
					commit(b)
				}
			})
			t.Logf("%d wire churn commits of %d updates: %d allocations on the session's goroutines", commits, 2*perSide, n)
			if n != 0 {
				t.Errorf("%d wire churn commits allocated %d times, want 0:\n%s", commits, n, strings.Join(stacks, "\n"))
			}
			if got := ws.Cardinality(); got != xs+ys+window {
				t.Errorf("|D| = %d after the churn, want %d + %d + %d", got, xs, ys, window)
			}
			if err := ws.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSessionReplyBufferPipelined: a client pipelines 12,000 batches over
// net.Pipe, each followed by a `count` and every seventh by an `answer`,
// while it reads the replies concurrently. It writes the stream in pieces
// that each end inside a batch, so the session reads more input only
// mid-batch: it never drains its outbox itself there, the writer
// goroutine sends the replies, and the reader may reuse its reply buffer
// only after draining the outbox itself at replyFlushAt. Every reply
// must be byte for byte the line the session wrote when each reply was a
// fresh slice; the session must allocate nothing after the first 1,000
// batches, so its reply buffer stopped growing there; and the buffer
// must end within 2 × replyFlushAt bytes.
func TestSessionReplyBufferPipelined(t *testing.T) {
	const batches, warm = 12000, 1000
	srv := newTestServer(t, Options{WriteTimeout: -1})
	if _, err := srv.Workspace().Register("q", "Q(x,y) :- E(x,y)"); err != nil {
		t.Fatal(err)
	}
	// Batch k deletes batch k-1's tuples and inserts k%3+1 new ones, so
	// the replies vary in length; pieces[k-1] ends just after batch k's
	// first update line.
	var pieces [][]byte
	var want []string
	var rest []byte
	prev := 0
	for k := 1; k <= batches; k++ {
		ins := k%3 + 1
		var lines []string
		for j := 0; j < ins; j++ {
			lines = append(lines, fmt.Sprintf("+E(%d,%d)\n", k, j))
		}
		for j := 0; j < prev; j++ {
			lines = append(lines, fmt.Sprintf("-E(%d,%d)\n", k-1, j))
		}
		pieces = append(pieces, append(append(rest, "begin\n"...), lines[0]...))
		rest = []byte(strings.Join(lines[1:], "") + "commit\ncount q\n")
		want = append(want, "ok begin\n", fmt.Sprintf("ok committed %d %d\n", ins+prev, k), fmt.Sprintf("ok count q %d %d\n", ins, k))
		if k%7 == 0 {
			rest = append(rest, "answer q\n"...)
			want = append(want, fmt.Sprintf("ok answer q true %d\n", k))
		}
		prev = ins
	}
	pieces = append(pieces, append(rest, "quit\n"...))
	want = append(want, "bye\n")

	cs, ss := net.Pipe()
	defer cs.Close()
	served := make(chan struct{})
	go func() { srv.ServeConn(ss); close(served) }()
	go func() {
		for _, p := range pieces {
			if _, err := cs.Write(p); err != nil {
				return
			}
		}
	}()
	cs.SetReadDeadline(time.Now().Add(time.Minute))
	br := bufio.NewReader(cs)
	read := func(lines []string) {
		for _, w := range lines {
			if got, err := br.ReadString('\n'); err != nil || got != w {
				t.Fatalf("reply %q (%v), want %q", got, err, w)
			}
		}
	}
	split := slices.Index(want, fmt.Sprintf("ok committed %d %d\n", warm%3+1+(warm-1)%3+1, warm))
	read(want[:split])
	var sess *session
	srv.mu.Lock()
	for live := range srv.sessions {
		sess = live
	}
	srv.mu.Unlock()
	n, stacks := sessionAllocs(func() { read(want[split:]) })
	<-served // the reader goroutine, the buffer's one user, has returned
	t.Logf("%d pipelined batches: %d allocations on the session's goroutines after the first %d; reply buffer capacity %d bytes",
		batches, n, warm, cap(sess.rbuf))
	if n != 0 {
		t.Errorf("the session allocated %d times after the first %d batches, want 0:\n%s", n, warm, strings.Join(stacks, "\n"))
	}
	if cap(sess.rbuf) > 2*replyFlushAt {
		t.Errorf("the reply buffer ended at %d bytes, want at most %d", cap(sess.rbuf), 2*replyFlushAt)
	}
}

// TestMaintenanceCountsEveryCommit: every commit that changes the store
// is timed into the handle's MaintenanceNS and counted exactly once — a
// single-update library Commit and a wire apply alike, each a commit of
// one through the one commit pipeline — and a commit that changes nothing
// is not counted.
func TestMaintenanceCountsEveryCommit(t *testing.T) {
	srv := newTestServer(t, Options{})
	ws := srv.Workspace()
	h, err := ws.Register("q", "Q(y) :- E(x,y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	c := pipeClient(t, srv)
	want := int64(0)
	for _, commit := range []struct {
		name    string
		changes bool
		run     func() error
	}{
		{"single-update Commit of E", true, func() error { _, _, err := ws.Commit([]dyncq.Update{dyncq.Insert("E", 1, 2)}); return err }},
		{"single-update Commit of T", true, func() error { _, _, err := ws.Commit([]dyncq.Update{dyncq.Insert("T", 2)}); return err }},
		{"wire apply", true, func() error { _, _, err := c.Apply(dyncq.Insert("E", 3, 2)); return err }},
		{"single-update Commit that changes nothing", false, func() error { _, _, err := ws.Commit([]dyncq.Update{dyncq.Insert("E", 1, 2)}); return err }},
	} {
		if err := commit.run(); err != nil {
			t.Fatalf("%s: %v", commit.name, err)
		}
		if commit.changes {
			want++
		}
		if _, batches := h.MaintenanceNS(); batches != want {
			t.Fatalf("after %s: MaintenanceNS counts %d commits, want %d", commit.name, batches, want)
		}
	}
}

// TestCommitKeepsNoBatchTuple: Workspace.Commit keeps nothing of the
// batch it was handed once it returns — the contract the session's arena
// stands on. Batches go in two ways, alternately: through the library,
// their tuples windows of one reused array that is overwritten with junk
// right after every Commit, and through a wire session, whose arena the
// next batch overwrites. A core and an ivm query each feed a capture hook
// that keeps the event tuples it is handed without copying them, a cached
// snapshot pinned after every commit, and a server subscriber's mirror.
// At every version the workspace's invariants hold and the live results,
// the hooks' mirrors, the pins — the current and the previous one — and
// the subscriber's mirrors all equal an oracle evaluated on a database
// fed copies of the batches.
func TestCommitKeepsNoBatchTuple(t *testing.T) {
	srv := newTestServer(t, Options{})
	ws := srv.Workspace()
	texts := map[string]string{"core": "Q(y) :- E(x,y), T(y)", "ivm": "Q(x) :- E(x,y), T(y)"}
	names := []string{"core", "ivm"}
	hooked := map[string]map[string][]dyncq.Value{}
	for _, name := range names {
		for _, reg := range []string{name, name + "_sub"} {
			h, err := ws.Register(reg, texts[name])
			if err != nil {
				t.Fatal(err)
			}
			if got := h.Strategy().String(); got != name {
				t.Fatalf("%s routed to %s", reg, got)
			}
		}
		mirror := map[string][]dyncq.Value{}
		hooked[name] = mirror
		if err := ws.CaptureDeltas(name, func(ev dyncq.DeltaEvent) {
			for _, tuple := range ev.Removed {
				delete(mirror, fmt.Sprint(tuple))
			}
			for _, tuple := range ev.Added {
				mirror[fmt.Sprint(tuple)] = tuple // kept as handed over: no copy
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	writer, sub := pipeClient(t, srv), pipeClient(t, srv)
	subbed := map[string]map[string]bool{}
	for _, name := range names {
		if _, err := sub.Subscribe(name + "_sub"); err != nil {
			t.Fatal(err)
		}
		base, err := sub.Enumerate(name + "_sub")
		if err != nil || base.Version != 0 {
			t.Fatalf("enumerate: %+v, %v", base, err)
		}
		subbed[name+"_sub"] = map[string]bool{}
	}

	db := dyndb.New()
	want := func(name string) []string {
		var keys []string
		for _, tuple := range eval.Evaluate(cq.MustParse(texts[name]), db).Tuples() {
			keys = append(keys, fmt.Sprint([]dyncq.Value(tuple)))
		}
		slices.Sort(keys)
		return keys
	}
	keysOf := func(tuples [][]dyncq.Value) []string {
		keys := make([]string, 0, len(tuples))
		for _, tuple := range tuples {
			keys = append(keys, fmt.Sprint(tuple))
		}
		slices.Sort(keys)
		return keys
	}
	pins := map[string]*dyncq.QuerySnapshot{}
	pinned := map[string][]string{}

	rng := rand.New(rand.NewSource(5))
	stream := workload.RandomStream(rng, map[string]int{"E": 2, "T": 1}, 10, 1200, 0.35)
	arena := make([]dyncq.Value, 0, 64)
	var batch []dyncq.Update
	var last uint64
	for b, at := 0, 0; at < len(stream); b++ {
		n := min(1+rng.Intn(40), len(stream)-at)
		var version uint64
		var err error
		if b%2 == 0 {
			arena, batch = arena[:0], batch[:0]
			for _, u := range stream[at : at+n] {
				from := len(arena)
				arena = append(arena, u.Tuple...)
				batch = append(batch, dyncq.Update{Op: u.Op, Rel: u.Rel, Tuple: arena[from:len(arena):len(arena)]})
			}
			_, version, err = ws.Commit(batch)
			for i := range arena {
				arena[i] = -1 - dyncq.Value(i)
			}
		} else {
			_, version, err = writer.ApplyBatch(stream[at : at+n])
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range stream[at : at+n] {
			db.Apply(u)
		}
		at += n

		if err := ws.CheckInvariants(); err != nil {
			t.Fatalf("version %d: %v", version, err)
		}
		// The subscriber: one delta frame per query per version, none for
		// a batch that changed nothing.
		for caught := 0; version != last && caught < len(names); {
			d := <-sub.Deltas()
			if d.Resync {
				t.Fatalf("unexpected resync: %+v", d)
			}
			for _, tuple := range d.Removed {
				delete(subbed[d.Query], fmt.Sprint(tuple))
			}
			for _, tuple := range d.Added {
				subbed[d.Query][fmt.Sprint(tuple)] = true
			}
			if d.Version == version {
				caught++
			}
		}
		last = version
		for _, name := range names {
			h := ws.Handle(name)
			oracle := want(name)
			var mirror []string
			for key, tuple := range hooked[name] {
				if fmt.Sprint(tuple) != key {
					t.Fatalf("version %d, %s: the capture hook was handed %s, which now reads %v", version, name, key, tuple)
				}
				mirror = append(mirror, key)
			}
			slices.Sort(mirror)
			var subMirror []string
			for key := range subbed[name+"_sub"] {
				subMirror = append(subMirror, key)
			}
			slices.Sort(subMirror)
			if prev := pins[name]; prev != nil && !slices.Equal(keysOf(prev.Tuples()), pinned[name]) {
				t.Fatalf("version %d, %s: the pin of version %d changed", version, name, prev.Version())
			}
			pin := h.Snapshot()
			pins[name], pinned[name] = pin, keysOf(pin.Tuples())
			for what, got := range map[string][]string{
				"live result": keysOf(h.Tuples()), "hook mirror": mirror, "pin": pinned[name], "subscriber mirror": subMirror,
			} {
				if !slices.Equal(got, oracle) {
					t.Fatalf("version %d, %s: %s %v, oracle %v", version, name, what, got, oracle)
				}
			}
		}
	}
}

// TestSessionDeltaBeforeOwnReply: a session subscribed to the query it
// commits to receives, for each of 1,000 commits over TCP, `ok begin`,
// the version's delta frame, then `ok committed` naming that version:
// the frames of one connection leave in the order they were queued,
// whichever goroutine writes them.
func TestSessionDeltaBeforeOwnReply(t *testing.T) {
	_, addr := startTCPServer(t, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Minute))
	br := bufio.NewReader(conn)
	expect := func(want string) {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil || line != want {
			t.Fatalf("read %q (%v), want %q", line, err, want)
		}
	}
	fmt.Fprintf(conn, "register q Q(x,y) :- E(x,y)\nsubscribe q\n")
	expect("ok registered q core 0\n")
	expect("ok subscribed q 0\n")
	for v := 1; v <= 1000; v++ {
		if _, err := fmt.Fprintf(conn, "begin\n+E(%d,%d)\ncommit\n", v, -v); err != nil {
			t.Fatal(err)
		}
		expect("ok begin\n")
		expect(fmt.Sprintf("delta q %d 1 0\n", v))
		expect(fmt.Sprintf("+q(%d,%d)\n", v, -v))
		expect(".\n")
		expect(fmt.Sprintf("ok committed 1 %d\n", v))
	}
}

// TestSessionInteractiveBatch: a client that reads `ok begin` before it
// writes an update line — a person typing a batch into `dyncq client` —
// gets it over net.Pipe, which buffers nothing: mid-batch, the reply
// leaves while the session waits for the next line, not at the commit.
func TestSessionInteractiveBatch(t *testing.T) {
	srv := newTestServer(t, Options{})
	if _, err := srv.Workspace().Register("q", "Q(x,y) :- E(x,y)"); err != nil {
		t.Fatal(err)
	}
	cs, ss := net.Pipe()
	defer cs.Close()
	go srv.ServeConn(ss)
	cs.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(cs)
	for round, want := range []string{"ok committed 3 1\n", "ok committed 3 2\n"} {
		for _, req := range []string{"begin", "+E(1,1)", "+E(2,2)", "+E(3,3)", "commit"} {
			if round == 1 && req != "begin" && req != "commit" {
				req = "-" + req[1:]
			}
			if _, err := io.WriteString(cs, req+"\n"); err != nil {
				t.Fatalf("round %d, writing %q: %v", round, req, err)
			}
			var reply string
			switch req {
			case "begin":
				reply = "ok begin\n"
			case "commit":
				reply = want
			default:
				continue
			}
			if line, err := br.ReadString('\n'); err != nil || line != reply {
				t.Fatalf("round %d: %q answered %q (%v), want %q", round, req, line, err, reply)
			}
		}
	}
}

// TestSessionSubscriberKeepsUp: a writer pipelines 10 × OutboxFrames
// commits over TCP — `begin … commit` batches, or single `apply`s — so
// the session reading them never runs out of input, while a subscriber
// reads. The server runs on one processor, as the benchmark's does, and
// every commit wakes the subscriber's writer goroutine, which there runs
// only when the committing reader yields it the processor: the
// subscriber must see every version in turn and no resync. With one
// reply per commit (`apply`) the writer's own outbox fills no sooner
// than the subscriber's, so the reader must yield between requests, not
// only when its outbox is full. (On more processors a writer goroutine
// that loses the race to a pipelining committer is the slow-consumer
// case, dropped and resynced by design.)
func TestSessionSubscriberKeepsUp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, form := range []string{"begin-commit", "apply"} {
		t.Run(form, func(t *testing.T) { subscriberKeepsUp(t, form) })
	}
}

func subscriberKeepsUp(t *testing.T, form string) {
	const outbox = 32 // every frame fits in the sockets' buffers: only scheduling can drop one
	const commits = 10 * outbox
	srv, addr := startTCPServer(t, Options{OutboxFrames: outbox})
	if _, err := srv.Workspace().Register("q", "Q(x,y) :- E(x,y)"); err != nil {
		t.Fatal(err)
	}
	sub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	var seen atomic.Uint64 // the last version the subscriber saw in turn
	failed := make(chan error, 1)
	go func() {
		for d := range sub.Deltas() {
			switch {
			case d.Resync:
				failed <- fmt.Errorf("resync at version %d: %d frames dropped", d.Version, d.Dropped)
				return
			case d.Version != seen.Load()+1:
				failed <- fmt.Errorf("delta of version %d after %d", d.Version, seen.Load())
				return
			}
			seen.Store(d.Version)
		}
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Minute))
	var requests []byte
	for i := 1; i <= commits; i++ {
		if form == "apply" {
			requests = fmt.Appendf(requests, "apply +E(%d,0)\n", i)
		} else {
			requests = fmt.Appendf(requests, "begin\n+E(%d,0)\ncommit\n", i)
		}
	}
	go conn.Write(requests)
	br := bufio.NewReader(conn)
	for v := 1; v <= commits; v++ {
		replies := []string{"ok begin\n", fmt.Sprintf("ok committed 1 %d\n", v)}
		if form == "apply" {
			replies = []string{fmt.Sprintf("ok applied 1 %d\n", v)}
		}
		for _, want := range replies {
			if line, err := br.ReadString('\n'); err != nil || line != want {
				t.Fatalf("commit %d: read %q (%v), want %q", v, line, err, want)
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); seen.Load() < commits; time.Sleep(time.Millisecond) {
		select {
		case err := <-failed:
			t.Fatal(err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("the subscriber saw versions 1 to %d of %d: frames were dropped, and no commit came after room returned to send the resync", seen.Load(), commits)
		}
	}
}
