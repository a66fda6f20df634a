package server

import (
	"bufio"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dyncq/internal/allocs"
	"dyncq/pkg/dyncq"
)

// TestClientDeltaFrames feeds the client's demultiplexer delta frames
// from a fake server. A well-formed frame decodes to its tuples and its
// exact bytes; a header whose counts promise more lines than the frame
// holds, or whose counts overflow when added, ends the connection with an
// error instead of sizing anything from the counts (the first header
// below used to panic the demux goroutine with makeslice: cap out of
// range, taking the process with it).
func TestClientDeltaFrames(t *testing.T) {
	cases := []struct {
		name, frames string
		want         []Delta // the frames delivered before the connection ends
		wantErr      string  // in the read error; "" = the stream ended cleanly
	}{
		{
			name:   "well-formed",
			frames: "delta q 3 1 1\n+q(1,2)\n-q(3,4)\n.\n",
			want: []Delta{{Query: "q", Version: 3,
				Added: [][]dyncq.Value{{1, 2}}, Removed: [][]dyncq.Value{{3, 4}},
				Raw: []byte("delta q 3 1 1\n+q(1,2)\n-q(3,4)\n.\n")}},
		},
		{name: "huge added count", frames: "delta q 1 4611686018427387904 0\n+q(1)\n.\n", wantErr: "truncated after 1 lines"},
		{name: "huge removed count", frames: "delta q 1 0 4611686018427387904\n-q(1)\n.\n", wantErr: "truncated after 1 lines"},
		{name: "counts overflow", frames: "delta q 1 9223372036854775807 1\n+q(1)\n.\n", wantErr: "malformed delta header"},
		{
			name:   "boolean",
			frames: "delta q 4 0 1\n-q()\n.\n",
			want: []Delta{{Query: "q", Version: 4, Added: [][]dyncq.Value{}, Removed: [][]dyncq.Value{{}},
				Raw: []byte("delta q 4 0 1\n-q()\n.\n")}},
		},
		{name: "another query's line", frames: "delta q 3 1 0\n+p(1,2)\n.\n", wantErr: `"+p(1,2)" is not a signed line of the query`},
		{name: "sign counts differ", frames: "delta q 3 1 1\n+q(1,2)\n+q(3,4)\n.\n", wantErr: `line 2 is "+q(3,4)", header says 1 added then 1 removed`},
		{name: "arity differs", frames: "delta q 3 2 0\n+q(1,2)\n+q(3)\n.\n", wantErr: "has 1 values, the first had 2"},
		{name: "no sign", frames: "delta q 3 1 0\nq(1,2)\n.\n", wantErr: `"q(1,2)" is not a signed line of the query`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs, ss := net.Pipe()
			go func() {
				ss.Write([]byte(c.frames))
				ss.Close()
			}()
			cl := NewClient(cs)
			defer cl.Close()
			var got []Delta
			for d := range cl.Deltas() {
				got = append(got, d)
			}
			<-cl.readDone
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("delivered %+v, want %+v", got, c.want)
			}
			switch {
			case c.wantErr == "" && cl.readErr != nil:
				t.Fatalf("read error %v, want none", cl.readErr)
			case c.wantErr != "" && (cl.readErr == nil || !strings.Contains(cl.readErr.Error(), c.wantErr)):
				t.Fatalf("read error %v, want one containing %q", cl.readErr, c.wantErr)
			}
		})
	}
}

// TestClientApplyBatchAllocationFree: a warmed client commits a batch of
// updates and its inverse over net.Pipe to an in-process server. The
// server's part of the round trip allocates nothing at 64 and at 512
// updates — the session parses each line where it lies and writes its
// replies into its reply buffer — and the client's allocates at most once
// per commit at 64 and at 512 updates, compared after rounding down: it
// writes each update line into its write buffer through
// stream.AppendTupleLine, its demux goroutine makes no string of the
// `ok begin` line and it cuts `ok committed <n> <version>` in place, so
// what is left is the string of that line — 1 per commit at this writing
// (2.5 while the committed line was split into fields and `ok begin` was a
// string of its own). Each side counts every allocation on its own goroutines
// over 100 cycles (the server through sessionAllocs, the client through
// allocs.Count).
func TestClientApplyBatchAllocationFree(t *testing.T) {
	clientFrames := []string{"dyncq/internal/server.(*Client).ApplyBatch", "dyncq/internal/server.(*Client).demux"}
	const cycles = 100
	var clientAllocs [2]int64
	for i, n := range []int{64, 512} {
		srv := newTestServer(t, Options{WriteTimeout: -1}) // no deadline timers, as in TestSessionBatchAllocationFree
		if _, err := srv.Workspace().Register("star", "Q(y) :- E(x,y), T(y)"); err != nil {
			t.Fatal(err)
		}
		cs, ss := net.Pipe()
		go srv.ServeConn(ss)
		cl := NewClient(cs)
		t.Cleanup(func() { cl.Close() })
		ins, del := make([]dyncq.Update, n), make([]dyncq.Update, n)
		for j := range ins {
			ins[j] = dyncq.Insert("E", dyncq.Value(j%1000), dyncq.Value(1000+j))
			if j%2 == 1 {
				ins[j] = dyncq.Insert("T", dyncq.Value(1000+j))
			}
			del[j] = dyncq.Update{Op: dyncq.OpDelete, Rel: ins[j].Rel, Tuple: ins[j].Tuple}
		}
		run := func() {
			for range cycles {
				for _, batch := range [][]dyncq.Update{ins, del} {
					if changed, _, err := cl.ApplyBatch(batch); err != nil || changed != n {
						t.Fatalf("ApplyBatch: %d changed (%v), want %d", changed, err, n)
					}
				}
			}
		}
		run() // warm the buffers, the session's arena, the store and the runtime's caches
		server, stacks := sessionAllocs(run)
		clientAllocs[i], _ = allocs.Count(run, clientFrames...)
		t.Logf("%d client batch commits of %d updates: %d allocations on the session's goroutines, %d on the client's", 2*cycles, n, server, clientAllocs[i])
		if server != 0 {
			t.Fatalf("%d client batch commits of %d updates allocated %d times on the server, want 0:\n%s", 2*cycles, n, server, strings.Join(stacks, "\n"))
		}
	}
	// The client's own count is compared per commit, rounded down: its
	// demux goroutine's count moves by one from window to window.
	for i, n := range []int{64, 512} {
		if perCommit := clientAllocs[i] / (2 * cycles); perCommit > 1 {
			t.Errorf("the client allocates %d times per batch commit of %d updates, want at most 1", perCommit, n)
		}
	}
}

// TestClientEnumerateFrames answers an enumerate request with snapshot
// frames from a fake server. A well-formed frame decodes to its tuples.
// A header whose n × arity exceeds the frame's bytes, a negative arity,
// or a tuple line whose arity differs from the header's, is an error, and a hostile
// frame costs the client memory in proportion to its bytes: a first line
// of commas over many short lines used to size the value array as
// n × that line's length (≈ 8 MB for the 7 KB frame below).
func TestClientEnumerateFrames(t *testing.T) {
	commas := "snapshot q 1024 1 1\n" + strings.Repeat(",", 1023) + "\n" + strings.Repeat("+q(1)\n", 1023) + ".\n"
	cases := []struct {
		name, frame string
		want        [][]dyncq.Value // nil: an error containing wantErr
		wantErr     string
		bounded     bool // the rejection allocates less than 8 bytes per frame byte
	}{
		{name: "well-formed", frame: "snapshot q 2 7 2\n+q(1,2)\n+q(3,-4)\n.\n", want: [][]dyncq.Value{{1, 2}, {3, -4}}},
		{name: "boolean", frame: "snapshot q 1 7 0\n+q()\n.\n", want: [][]dyncq.Value{{}}},
		{name: "empty", frame: "snapshot q 0 7 1\n.\n", want: [][]dyncq.Value{}},
		{name: "comma first line", frame: commas, wantErr: "malformed tuple line", bounded: true},
		{name: "huge arity", frame: "snapshot q 3 7 1000000000\n+q(1)\n+q(2)\n+q(3)\n.\n", wantErr: "promises more values"},
		{name: "negative arity", frame: "snapshot q 1 7 -1\n+q(1)\n.\n", wantErr: "malformed snapshot header"},
		{name: "arity mismatch", frame: "snapshot q 2 7 2\n+q(1,2)\n+q(3)\n.\n", wantErr: "has 1 values, header says 2"},
		{name: "another query's line", frame: "snapshot q 2 7 2\n+q(1,2)\n+p(3,4)\n.\n", wantErr: `"+p(3,4)" is not a signed line of the query`},
		{name: "no sign", frame: "snapshot q 1 7 2\nq(1,2)\n.\n", wantErr: `"q(1,2)" is not a signed line of the query`},
		{name: "removed line", frame: "snapshot q 2 7 1\n+q(1)\n-q(2)\n.\n", wantErr: `"-q(2)" is a - line`},
		{name: "another query's header", frame: "snapshot other 1 5 1\n+other(1)\n.\n", wantErr: "answers another query"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs, ss := net.Pipe()
			frame := []byte(c.frame)
			go func() { // answer a ping, so the client's reader is running, then the request
				r := bufio.NewReader(ss)
				r.ReadString('\n')
				ss.Write([]byte("ok pong\n"))
				r.ReadString('\n')
				ss.Write(frame)
			}()
			cl := NewClient(cs)
			defer cl.Close()
			if err := cl.Ping(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			snap, err := cl.Enumerate("q")
			runtime.ReadMemStats(&after)
			if c.want == nil {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("Enumerate error %v, want one containing %q", err, c.wantErr)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; c.bounded && grew >= 8*uint64(len(c.frame)) {
					t.Fatalf("a %d-byte frame allocated %d bytes", len(c.frame), grew)
				} else if c.bounded {
					t.Logf("a %d-byte frame allocated %d bytes", len(c.frame), grew)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap.Tuples, c.want) || snap.Version != 7 || snap.Query != "q" {
				t.Fatalf("got %+v, want tuples %v at version 7", snap, c.want)
			}
		})
	}
}

// TestClientReplies answers each request with a reply line from a fake
// server. A reply naming another query than the one asked about, an
// answer other than true or false, an applied reply whose changed field
// is other than 0 or 1, a fixed-arity reply with fields past its last,
// and a queries request answered by another verb or with two lists are
// errors, not results for the request.
func TestClientReplies(t *testing.T) {
	cases := []struct {
		name, reply, wantErr string
		call                 func(*Client) (any, error)
	}{
		{"count of another query", "ok count other 5 9", "answers another query",
			func(c *Client) (any, error) { n, _, err := c.Count("q"); return n, err }},
		{"answer of another query", "ok answer other true 9", "answers another query",
			func(c *Client) (any, error) { ok, _, err := c.Answer("q"); return ok, err }},
		{"answer neither true nor false", "ok answer q maybe 9", "unexpected answer response",
			func(c *Client) (any, error) { ok, _, err := c.Answer("q"); return ok, err }},
		{"another query subscribed", "ok subscribed other 3", "answers another query",
			func(c *Client) (any, error) { return c.Subscribe("q") }},
		{"another query unsubscribed", "ok unsubscribed other", "answers another query",
			func(c *Client) (any, error) { return nil, c.Unsubscribe("q") }},
		{"another query registered", "ok registered other core 1", "answers another query",
			func(c *Client) (any, error) { return nil, c.Register("q", "Q(x) :- E(x,y)") }},
		{"another query unregistered", "ok unregistered other", "answers another query",
			func(c *Client) (any, error) { return nil, c.Unregister("q") }},
		{"queries answered by another verb", "ok version 3", "unexpected response",
			func(c *Client) (any, error) { return c.Queries() }},
		{"queries with two lists", "ok queries a b", "unexpected queries response",
			func(c *Client) (any, error) { return c.Queries() }},
		{"applied neither 0 nor 1", "ok applied maybe 3", "unexpected applied response",
			func(c *Client) (any, error) { ok, _, err := c.Apply(dyncq.Insert("E", 1, 2)); return ok, err }},
		{"applied with a trailing field", "ok applied 1 3 4", "unexpected response",
			func(c *Client) (any, error) { ok, _, err := c.Apply(dyncq.Insert("E", 1, 2)); return ok, err }},
		{"count with a trailing field", "ok count q 5 9 x", "unexpected response",
			func(c *Client) (any, error) { n, _, err := c.Count("q"); return n, err }},
		{"answer with a trailing field", "ok answer q true 9 9", "unexpected response",
			func(c *Client) (any, error) { ok, _, err := c.Answer("q"); return ok, err }},
		{"subscribed with a trailing field", "ok subscribed q 3 4", "unexpected response",
			func(c *Client) (any, error) { return c.Subscribe("q") }},
		{"unsubscribed with a trailing field", "ok unsubscribed q 3", "unexpected response",
			func(c *Client) (any, error) { return nil, c.Unsubscribe("q") }},
		{"registered with a trailing field", "ok registered q core 1 x", "unexpected response",
			func(c *Client) (any, error) { return nil, c.Register("q", "Q(x) :- E(x,y)") }},
		{"unregistered with a trailing field", "ok unregistered q x", "unexpected response",
			func(c *Client) (any, error) { return nil, c.Unregister("q") }},
		{"version with a trailing field", "ok version 3 4", "unexpected response",
			func(c *Client) (any, error) { return c.Version() }},
		{"pong with a trailing field", "ok pong x", "unexpected response",
			func(c *Client) (any, error) { return nil, c.Ping() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs, ss := net.Pipe()
			go func() { // answer a ping, so the client's reader is running, then the request
				r := bufio.NewReader(ss)
				r.ReadString('\n')
				ss.Write([]byte("ok pong\n"))
				r.ReadString('\n')
				ss.Write([]byte(c.reply + "\n"))
			}()
			cl := NewClient(cs)
			defer cl.Close()
			if err := cl.Ping(); err != nil {
				t.Fatal(err)
			}
			if got, err := c.call(cl); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("reply %q: got %v, error %v; want an error containing %q", c.reply, got, err, c.wantErr)
			}
		})
	}
}
