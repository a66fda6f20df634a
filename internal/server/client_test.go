package server

import (
	"net"
	"reflect"
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
