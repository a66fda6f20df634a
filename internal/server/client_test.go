package server

import (
	"bufio"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

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
		{name: "huge added count", frames: "delta q 1 4611686018427387904 0\n+q(1)\n.\n", wantErr: "truncated after 2 lines"},
		{name: "huge removed count", frames: "delta q 1 0 4611686018427387904\n-q(1)\n.\n", wantErr: "truncated after 2 lines"},
		{name: "counts overflow", frames: "delta q 1 9223372036854775807 1\n+q(1)\n.\n", wantErr: "malformed delta header"},
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
