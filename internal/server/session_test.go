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
	"sync/atomic"
	"testing"
	"time"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
	"dyncq/pkg/dyncq"
)

// TestSessionBatchAllocationFree: a warmed session commits a pre-encoded
// batch of update lines and its inverse over net.Pipe, and the whole
// round trip — scan, parse, commit on a core-routed query, reply —
// allocates as often at 512 lines as at 64, at most 3 times per commit,
// all in the reply: the lines are parsed where the scanner holds them,
// into the session's arena, with interned relation names, and the commit
// itself allocates nothing.
func TestSessionBatchAllocationFree(t *testing.T) {
	allocsAt := func(lines int) float64 {
		// No write deadline: net.Pipe arms a timer per deadline, once per
		// burst, and a commit's replies leave in one burst or two.
		srv := newTestServer(t, Options{WriteTimeout: -1})
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

		cs, ss := net.Pipe()
		go srv.ServeConn(ss)
		t.Cleanup(func() { cs.Close() })
		br := bufio.NewReader(cs)
		commit := func(batch []byte) {
			if _, err := cs.Write(batch); err != nil {
				t.Fatal(err)
			}
			for _, want := range [][]byte{okBeginLine, committed} {
				line, err := br.ReadSlice('\n')
				if err != nil || !bytes.HasPrefix(line, want) {
					t.Fatalf("reply %q (%v), want %q…", line, err, want)
				}
			}
		}
		cycle := func() { commit(ins); commit(del) }
		cycle() // warm the arena, the pending slice, the name table and the store
		cycle()
		return testing.AllocsPerRun(100, cycle) / 2
	}
	small, large := allocsAt(64), allocsAt(512)
	t.Logf("allocs per session commit: %v at 64 lines, %v at 512", small, large)
	if small != large {
		t.Fatalf("a session commit allocates %v times at 64 lines but %v at 512: something allocates per line", small, large)
	}
	if small > 3 {
		t.Fatalf("a session commit of 64 lines allocates %v times, want at most 3", small)
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
