package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dyncq/internal/dyndb"
)

// parseTupleLineReference is the tuple-line parser the client used before
// it parsed in place: the yardstick for what the wire format admits.
func parseTupleLineReference(line string) (sign byte, name string, tuple []dyndb.Value, err error) {
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
		return sign, name, []dyndb.Value{}, nil
	}
	parts := strings.Split(body, ",")
	tuple = make([]dyndb.Value, len(parts))
	for i, p := range parts {
		v, perr := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if perr != nil {
			return 0, "", nil, fmt.Errorf("malformed value %q in tuple line %q", p, line)
		}
		tuple[i] = dyndb.Value(v)
	}
	return sign, name, tuple, nil
}

// edgeValues are the integers a decimal parser gets wrong first.
var edgeValues = []dyndb.Value{0, -1, 1, 9, 10, -10, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	922337203685477580, 922337203685477581, -922337203685477580, 1e18, -1e18}

func randomTuple(r *rand.Rand) []dyndb.Value {
	tuple := make([]dyndb.Value, r.Intn(5)) // arity 0 included
	for i := range tuple {
		switch r.Intn(3) {
		case 0:
			tuple[i] = edgeValues[r.Intn(len(edgeValues))]
		case 1:
			tuple[i] = dyndb.Value(r.Intn(2000) - 1000)
		default:
			tuple[i] = dyndb.Value(r.Uint64())
		}
	}
	return tuple
}

// TestTupleLineRoundTrip: whatever AppendTupleLine renders, ParseTupleLine
// reads back — sign, name and values, appended behind what the caller's
// backing array already holds and leaving that alone — and TupleLineLen
// and TupleArity say beforehand exactly how many bytes and values it is.
func TestTupleLineRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		tuple := randomTuple(r)
		sign, name := "+-"[r.Intn(2)], []string{"q", "feed", "a_b.c"}[r.Intn(3)]
		line := AppendTupleLine(nil, sign, name, tuple)
		if len(line) != TupleLineLen(name, tuple) {
			t.Fatalf("%q: TupleLineLen says %d bytes, the line has %d", line, TupleLineLen(name, tuple), len(line))
		}
		text := strings.TrimSuffix(string(line), "\n")
		if got := TupleArity(text); got != len(tuple) {
			t.Fatalf("%q: TupleArity %d, want %d", text, got, len(tuple))
		}
		held := []dyndb.Value{42, -42}
		gotSign, gotName, vals, err := ParseTupleLine(text, held)
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
		line := AppendTupleLine(nil, '+', "q", randomTuple(r))
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
		sign, name, tuple, err := ParseTupleLine(line, nil)
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
// -fuzz=FuzzParseTupleLine ./internal/stream.
func FuzzParseTupleLine(f *testing.F) {
	for _, seed := range []string{"+q(1,2)", "-feed(-9223372036854775808)", "+q()", "+q(007)", "+q(-0)",
		"", "+", "+q(", "q(1)", "+(1)", "+q(1,)", "+q(,1)", "+q(--1)", "+q(+1)", "+q( 1)", "+q(0x1)",
		"+q(9223372036854775808)", "+q(-9223372036854775809)", "+q(1)(2)", "+q((1))", "+q(1))", "+q(1) "} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		dirty := []dyndb.Value{42, -42, 7, 7, 7} // spare capacity holding stale values
		sign, name, vals, err := ParseTupleLine(line, dirty[:2])
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

// BenchmarkParseLine puts both readers of the line format on record, in
// ns per line on the same lines: the update parser (Parse, which takes
// what people write — white space, an optional sign — and checks the
// relation name against the identifier rule) and the frame decoder
// (ParseTupleLine, which reads only the layout AppendTupleLine writes).
// The lines are ones both accept, shaped like the benchmark's updates.
func BenchmarkParseLine(b *testing.B) {
	lines := []string{"+E(40213,1877)", "-R(39120,15003,417)", "+T(19944)", "-feed(81236,-9223372036854775808)"}
	vals := make([]dyndb.Value, 0, 8)
	perLine := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/line")
	}
	b.Run("parser=update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				if _, _, out, err := Parse(line, nil, vals[:0]); err != nil || len(out) == 0 {
					b.Fatalf("%q: %v", line, err)
				}
			}
		}
		perLine(b)
	})
	b.Run("parser=frame", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				if _, _, out, err := ParseTupleLine(line, vals[:0]); err != nil || len(out) == 0 {
					b.Fatalf("%q: %v", line, err)
				}
			}
		}
		perLine(b)
	})
}
