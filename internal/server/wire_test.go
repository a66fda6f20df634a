package server

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dyncq/pkg/dyncq"
)

// parseTupleLineReference is the tuple-line parser the client used before
// it parsed in place: the yardstick for what the wire format admits.
func parseTupleLineReference(line string) (sign byte, name string, tuple []dyncq.Value, err error) {
	if len(line) < 4 || (line[0] != '+' && line[0] != '-') {
		return 0, "", nil, fmt.Errorf("malformed tuple line %q", line)
	}
	sign = line[0]
	open := strings.IndexByte(line, '(')
	if open < 1 || line[len(line)-1] != ')' {
		return 0, "", nil, fmt.Errorf("malformed tuple line %q", line)
	}
	name = line[1:open]
	body := line[open+1 : len(line)-1]
	if body == "" {
		return sign, name, []dyncq.Value{}, nil
	}
	parts := strings.Split(body, ",")
	tuple = make([]dyncq.Value, len(parts))
	for i, p := range parts {
		v, perr := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if perr != nil {
			return 0, "", nil, fmt.Errorf("malformed value %q in tuple line %q", p, line)
		}
		tuple[i] = dyncq.Value(v)
	}
	return sign, name, tuple, nil
}

// edgeValues are the integers a decimal parser gets wrong first.
var edgeValues = []dyncq.Value{0, -1, 1, 9, 10, -10, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	922337203685477580, 922337203685477581, -922337203685477580, 1e18, -1e18}

func randomTuple(r *rand.Rand) []dyncq.Value {
	tuple := make([]dyncq.Value, r.Intn(5)) // arity 0 included
	for i := range tuple {
		switch r.Intn(3) {
		case 0:
			tuple[i] = edgeValues[r.Intn(len(edgeValues))]
		case 1:
			tuple[i] = dyncq.Value(r.Intn(2000) - 1000)
		default:
			tuple[i] = dyncq.Value(r.Uint64())
		}
	}
	return tuple
}

// TestTupleLineRoundTrip: whatever appendTupleLine renders, parseTupleLine
// reads back — sign, name and values, appended behind what the caller's
// backing array already holds and leaving that alone — and tupleLineLen
// and tupleArity say beforehand exactly how many bytes and values it is.
func TestTupleLineRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		tuple := randomTuple(r)
		sign, name := "+-"[r.Intn(2)], []string{"q", "feed", "a_b.c"}[r.Intn(3)]
		line := appendTupleLine(nil, sign, name, tuple)
		if len(line) != tupleLineLen(name, tuple) {
			t.Fatalf("%q: tupleLineLen says %d bytes, the line has %d", line, tupleLineLen(name, tuple), len(line))
		}
		text := strings.TrimSuffix(string(line), "\n")
		if got := tupleArity(text); got != len(tuple) {
			t.Fatalf("%q: tupleArity %d, want %d", text, got, len(tuple))
		}
		held := []dyncq.Value{42, -42}
		gotSign, gotName, vals, err := parseTupleLine(text, held)
		if err != nil || gotSign != sign || gotName != name || !slices.Equal(vals[2:], tuple) || vals[0] != 42 || vals[1] != -42 {
			t.Fatalf("%q parsed to %c %q %v (err %v), want %c %q %v behind [42 -42]", text, gotSign, gotName, vals, err, sign, name, tuple)
		}
	}
}

// TestParseTupleLineRejectsWhatTheReferenceRejects: on lines that are
// not quite tuple lines — hand-picked ones and random damage to good ones
// — the in-place parser accepts nothing the reference parser rejects, and
// where both accept they read the same tuple.
func TestParseTupleLineRejectsWhatTheReferenceRejects(t *testing.T) {
	lines := []string{"", "+", "+q", "+q(", "+q)", "q(1)", "*q(1)", "+(1)", "+()", "+q()", "+q(1", "+q1)", "+q(1,)", "+q(,1)", "+q(,)", "+q(1,,2)",
		"+q(-)", "+q(--1)", "+q(1-)", "+q(+1)", "+q( 1)", "+q(1 )", "+q(1, 2)", "+q(a)", "+q(1a)", "+q(0x1)", "+q(1_0)", "+q(1.0)", "+q(-0)", "+q(007)",
		"+q(9223372036854775807)", "+q(9223372036854775808)", "+q(-9223372036854775808)", "+q(-9223372036854775809)",
		"+q(18446744073709551616)", "+q(99999999999999999999999)", "+q(1)(2)", "+q((1))", "+q(1))", "-q(1,2,3)", "+q(1)\n", "+q(1) "}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		line := appendTupleLine(nil, '+', "q", randomTuple(r))
		line = line[:len(line)-1]
		for d := r.Intn(3); d >= 0 && len(line) > 0; d-- { // damage: overwrite, drop or double a byte
			at := r.Intn(len(line))
			switch r.Intn(3) {
			case 0:
				line[at] = "+-(),0123456789 qx"[r.Intn(18)]
			case 1:
				line = slices.Delete(line, at, at+1)
			default:
				line = slices.Insert(line, at, line[at])
			}
		}
		lines = append(lines, string(line))
	}
	accepted := 0
	for _, line := range lines {
		sign, name, tuple, err := parseTupleLine(line, nil)
		if err != nil {
			if tuple != nil {
				t.Fatalf("%q: rejected, but returned values %v", line, tuple)
			}
			continue
		}
		accepted++
		refSign, refName, refTuple, refErr := parseTupleLineReference(line)
		if refErr != nil {
			t.Fatalf("%q: accepted as %c %q %v, the reference parser rejects it: %v", line, sign, name, tuple, refErr)
		}
		if sign != refSign || name != refName || !slices.Equal(tuple, refTuple) {
			t.Fatalf("%q: parsed to %c %q %v, the reference parser to %c %q %v", line, sign, name, tuple, refSign, refName, refTuple)
		}
	}
	if accepted < 100 || accepted > len(lines)-100 {
		t.Fatalf("%d of %d damaged lines accepted: the damage does not probe both sides", accepted, len(lines))
	}
}

// FuzzParseTupleLine holds the in-place tuple-line parser to the reference
// parser on arbitrary lines: it never panics, accepts nothing the
// reference rejects, reads what the reference reads where both accept, and
// appends behind the caller's values without touching them — a rejected
// line leaves the slice as it was. Seeded with the hand-picked lines of
// TestParseTupleLineRejectsWhatTheReferenceRejects; explore with go test
// -fuzz=FuzzParseTupleLine ./internal/server.
func FuzzParseTupleLine(f *testing.F) {
	for _, seed := range []string{"+q(1,2)", "-feed(-9223372036854775808)", "+q()", "+q(007)", "+q(-0)",
		"", "+", "+q(", "q(1)", "+(1)", "+q(1,)", "+q(,1)", "+q(--1)", "+q(+1)", "+q( 1)", "+q(0x1)",
		"+q(9223372036854775808)", "+q(-9223372036854775809)", "+q(1)(2)", "+q((1))", "+q(1))", "+q(1) "} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		dirty := []dyncq.Value{42, -42, 7, 7, 7} // spare capacity holding stale values
		sign, name, vals, err := parseTupleLine(line, dirty[:2])
		if len(vals) < 2 || vals[0] != 42 || vals[1] != -42 {
			t.Fatalf("%q: the values ahead of the tuple now read %v", line, vals)
		}
		if err != nil {
			if len(vals) != 2 {
				t.Fatalf("%q: rejected (%v), but returned values %v", line, err, vals[2:])
			}
			return
		}
		refSign, refName, refTuple, refErr := parseTupleLineReference(line)
		if refErr != nil {
			t.Fatalf("%q: accepted as %c %q %v, the reference parser rejects it: %v", line, sign, name, vals[2:], refErr)
		}
		if sign != refSign || name != refName || !slices.Equal(vals[2:], refTuple) {
			t.Fatalf("%q: parsed to %c %q %v, the reference parser to %c %q %v", line, sign, name, vals[2:], refSign, refName, refTuple)
		}
	})
}

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
	for i := 0; i < 200; i++ {
		ev := dyncq.DeltaEvent{Query: "feed", Version: r.Uint64()}
		for j := r.Intn(40); j > 0; j-- {
			ev.Added = append(ev.Added, randomTuple(r))
		}
		for j := r.Intn(40); j > 0; j-- {
			ev.Removed = append(ev.Removed, randomTuple(r))
		}
		frame := encodeDelta(ev)
		want := fmt.Sprintf("delta feed %d %d %d\n", ev.Version, len(ev.Added), len(ev.Removed))
		for _, tuple := range ev.Added {
			want = string(appendTupleLine([]byte(want), '+', "feed", tuple))
		}
		for _, tuple := range ev.Removed {
			want = string(appendTupleLine([]byte(want), '-', "feed", tuple))
		}
		if want += frameEnd; string(frame) != want {
			t.Fatalf("frame %q, want %q", frame, want)
		}
		if slack := cap(frame) - len(frame); slack < 0 || slack > 3*20 {
			t.Fatalf("a frame of %d bytes sits in a buffer of %d", len(frame), cap(frame))
		}
	}
}
