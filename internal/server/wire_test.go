package server

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dyncq/internal/stream"
	"dyncq/pkg/dyncq"
)

// TestReplyLines: the hot reply encoders render what the fmt-built lines
// they replaced did.
func TestReplyLines(t *testing.T) {
	for _, n := range []uint64{0, 1, 8, math.MaxUint64} {
		for _, v := range []uint64{0, 7, math.MaxUint64} {
			if got, want := string(encodeReply("committed", "", n, v)), fmt.Sprintf("ok committed %d %d\n", n, v); got != want {
				t.Fatalf("got %q, want %q", got, want)
			}
			if got, want := string(encodeReply("count", "feed", n, v)), fmt.Sprintf("ok count feed %d %d\n", n, v); got != want {
				t.Fatalf("got %q, want %q", got, want)
			}
			if got, want := string(encodeAnswer("feed", n > 0, v)), fmt.Sprintf("ok answer feed %t %d\n", n > 0, v); got != want {
				t.Fatalf("got %q, want %q", got, want)
			}
		}
	}
}

// TestEncodeDeltaSizesItsBuffer: a delta frame's buffer is sized from its
// values, so appending never regrows it and it holds little slack.
func TestEncodeDeltaSizesItsBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	randomTuple := func() []dyncq.Value { // arity 0 to 4, values of every decimal length and both signs
		tuple := make([]dyncq.Value, r.Intn(5))
		for k := range tuple {
			tuple[k] = dyncq.Value(r.Uint64() >> r.Intn(64))
		}
		return tuple
	}
	for i := 0; i < 200; i++ {
		ev := dyncq.DeltaEvent{Query: "feed", Version: r.Uint64()}
		for j := r.Intn(40); j > 0; j-- {
			ev.Added = append(ev.Added, randomTuple())
		}
		for j := r.Intn(40); j > 0; j-- {
			ev.Removed = append(ev.Removed, randomTuple())
		}
		frame := encodeDelta(ev)
		want := fmt.Sprintf("delta feed %d %d %d\n", ev.Version, len(ev.Added), len(ev.Removed))
		for _, tuple := range ev.Added {
			want = string(stream.AppendTupleLine([]byte(want), dyncq.OpInsert, "feed", tuple))
		}
		for _, tuple := range ev.Removed {
			want = string(stream.AppendTupleLine([]byte(want), dyncq.OpDelete, "feed", tuple))
		}
		if want += frameEnd; string(frame) != want {
			t.Fatalf("frame %q, want %q", frame, want)
		}
		if slack := cap(frame) - len(frame); slack < 0 || slack > 3*20 {
			t.Fatalf("a frame of %d bytes sits in a buffer of %d", len(frame), cap(frame))
		}
	}
}
