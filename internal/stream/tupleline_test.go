package stream

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dyncq/internal/dyndb"
)

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

// TestTupleLineRoundTrip: whatever AppendTupleLine renders, Parse reads
// back in its one-pass branch — sign, name and values, appended behind
// what the caller's backing array already holds and leaving that alone —
// and TupleLineLen says beforehand exactly how many bytes it is. The
// empty tuple is rendered but not read: the update grammar has none, and
// the client matches a boolean query's `±q()` row itself.
func TestTupleLineRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		tuple := randomTuple(r)
		sign, name := dyndb.Op(r.Intn(2)), []string{"q", "feed", "a_b'c"}[r.Intn(3)]
		line := AppendTupleLine(nil, sign, name, tuple)
		if len(line) != TupleLineLen(name, tuple) {
			t.Fatalf("%q: TupleLineLen says %d bytes, the line has %d", line, TupleLineLen(name, tuple), len(line))
		}
		text := strings.TrimSuffix(string(line), "\n")
		held := []dyndb.Value{42, -42}
		op, rel, vals, err := Parse(text, nil, held)
		if _, _, _, canonical := parseCanonical(text, held); canonical != (len(tuple) > 0) {
			t.Fatalf("%q: the one-pass branch took it: %v", text, canonical)
		}
		if len(tuple) == 0 {
			if err == nil || !strings.HasSuffix(err.Error(), "empty tuple") {
				t.Fatalf("%q: parsed to %v (err %v), want the empty tuple rejected", text, vals, err)
			}
			continue
		}
		if err != nil || op != sign || rel != name || !slices.Equal(vals[2:], tuple) || vals[0] != 42 || vals[1] != -42 {
			t.Fatalf("%q parsed to %v %q %v (err %v), want %v %q %v behind [42 -42]", text, op, rel, vals, err, sign, name, tuple)
		}
	}
}

// canonicalLayout is the layout AppendTupleLine writes, as parseCanonical
// admits it: an explicit sign, an ASCII identifier, and one or more
// decimal integers with an optional '-' (in range, which the expression
// does not say) between parentheses, and nothing else.
var canonicalLayout = regexp.MustCompile(`^[+-][A-Za-z_][A-Za-z0-9_']*\(-?[0-9]+(,-?[0-9]+)*\)$`)

func inCanonicalLayout(line string) bool {
	if !canonicalLayout.MatchString(line) {
		return false
	}
	for _, v := range strings.Split(line[strings.IndexByte(line, '(')+1:len(line)-1], ",") {
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			return false
		}
	}
	return true
}

// checkOneReader holds Parse on line, from a string and from bytes, to
// its general path and its one-pass branch to canonicalLayout: Parse
// reads what parseGeneral reads — op, relation, values, error text —
// appending behind the caller's values without touching them; a rejected
// line leaves the slice as it was; and the one-pass branch takes exactly
// the lines in the layout. It reports whether the branch took line.
func checkOneReader(t *testing.T, line string) (canonical bool) {
	t.Helper()
	same := func(via string, op, gop dyndb.Op, rel, grel string, vals, gvals []dyndb.Value, err, gerr error) {
		t.Helper()
		if len(vals) < 2 || vals[0] != 42 || vals[1] != -42 {
			t.Fatalf("%s(%q): the values ahead of the tuple now read %v", via, line, vals)
		}
		if fmt.Sprint(err) != fmt.Sprint(gerr) || op != gop || rel != grel || !slices.Equal(vals, gvals) {
			t.Fatalf("%s(%q) = %v %q %v (err %v), the general path's %v %q %v (err %v)", via, line, op, rel, vals, err, gop, grel, gvals, gerr)
		}
		if err != nil && len(vals) != 2 {
			t.Fatalf("%s(%q): rejected (%v), but returned values %v", via, line, err, vals[2:])
		}
	}
	dirty := func() []dyndb.Value { return []dyndb.Value{42, -42, 7, 7, 7}[:2] } // spare capacity holding stale values
	op, rel, vals, err := Parse(line, nil, dirty())
	gop, grel, gvals, gerr := parseGeneral(line, nil, dirty())
	same("Parse", op, gop, rel, grel, vals, gvals, err, gerr)
	bop, brel, bvals, berr := Parse([]byte(line), nil, dirty())
	same("Parse([]byte)", bop, gop, string(brel), grel, bvals, gvals, berr, gerr)
	_, _, _, canonical = parseCanonical(line, dirty())
	if want := inCanonicalLayout(line); canonical != want {
		t.Fatalf("%q: the one-pass branch took it: %v, in the canonical layout: %v", line, canonical, want)
	}
	return canonical
}

// oneReaderSeeds are lines at the edge of the canonical layout: some in
// it, most a byte away from it, in both directions of every rule.
var oneReaderSeeds = []string{"", "+", "+q", "+q(", "+q)", "q(1)", "*q(1)", "+(1)", "+()", "+q()", "+q(1", "+q1)", "+q(1,)", "+q(,1)", "+q(,)", "+q(1,,2)",
	"+q(-)", "+q(--1)", "+q(1-)", "+q(+1)", "+q(1,+2)", "+q( 1)", "+q(1 )", "+q(1, 2)", "+q(a)", "+q(1a)", "+q(0x1)", "+q(1_0)", "+q(1.0)", "+q(-0)", "+q(007)",
	"+q(9223372036854775807)", "+q(9223372036854775808)", "-q(-9223372036854775808)", "+q(-9223372036854775809)",
	"+q(18446744073709551616)", "+q(99999999999999999999999)", "+q(1)(2)", "+q((1))", "+q(1))", "-q(1,2,3)", "+q(1)\n", "+q(1) ", " +q(1)",
	"+1q(1)", "+'q(1)", "+q'(1)", "+_(1)", "+q.x(1)", "+q x(1)", "+q-x(1)", "+Eé(1)", "+é(1)", "+E\xc0(1)", "++q(1)", "+-q(1)", "-feed(81236,-9223372036854775808)"}

// TestParseOneReader: on hand-picked lines and random damage to good ones,
// Parse's one-pass branch and its general path agree exactly
// (checkOneReader), and the damage probes both sides of the branch.
func TestParseOneReader(t *testing.T) {
	lines := slices.Clone(oneReaderSeeds)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		line := AppendTupleLine(nil, dyndb.Op(r.Intn(2)), []string{"q", "feed", "a_b'c"}[r.Intn(3)], randomTuple(r))
		line = line[:len(line)-1]
		for d := r.Intn(3); d >= 0 && len(line) > 0; d-- { // damage: overwrite, drop or double a byte
			at := r.Intn(len(line))
			switch r.Intn(3) {
			case 0:
				line[at] = "+-(),0123456789 qx'._"[r.Intn(21)]
			case 1:
				line = slices.Delete(line, at, at+1)
			default:
				line = slices.Insert(line, at, line[at])
			}
		}
		lines = append(lines, string(line))
	}
	canonical := 0
	for _, line := range lines {
		if checkOneReader(t, line) {
			canonical++
		}
	}
	if canonical < 100 || canonical > len(lines)-100 {
		t.Fatalf("%d of %d damaged lines took the one-pass branch: the damage does not probe both sides", canonical, len(lines))
	}
}

// FuzzParseLine holds Parse to checkOneReader on arbitrary lines: it
// never panics, reads what its general path reads, error text included,
// leaves the values ahead of the tuple untouched, and takes the one-pass
// branch on exactly the canonical layout. Seeded with oneReaderSeeds;
// explore with go test -fuzz=FuzzParseLine ./internal/stream.
func FuzzParseLine(f *testing.F) {
	for _, seed := range oneReaderSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) { checkOneReader(t, line) })
}

// BenchmarkParseLine puts the one reader on record, in ns per line, on
// the same tuples in two layouts: the one AppendTupleLine writes (frames,
// the client's batches), read in Parse's one-pass branch, and the one
// people may write — white space, no sign, a '+' on a value — which
// falls through to the general path.
func BenchmarkParseLine(b *testing.B) {
	layouts := []struct {
		name  string
		lines []string
	}{
		{"canonical", []string{"+E(40213,1877)", "-R(39120,15003,417)", "+T(19944)", "-feed(81236,-9223372036854775808)"}},
		{"spaced", []string{"E(40213, 1877)", "- R(39120,15003,417)", "+T(+19944)", "-feed( 81236,-9223372036854775808 )"}},
	}
	var want [][]dyndb.Value
	for _, line := range layouts[0].lines {
		_, _, tuple, _ := Parse(line, nil, nil)
		want = append(want, tuple)
	}
	vals := make([]dyndb.Value, 0, 8)
	for _, l := range layouts {
		for i, line := range l.lines {
			if _, _, out, err := Parse(line, nil, vals[:0]); err != nil || !slices.Equal(out, want[i]) {
				b.Fatalf("%q: %v %v, want %v", line, out, err, want[i])
			}
		}
		b.Run("layout="+l.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, line := range l.lines {
					if _, _, out, err := Parse(line, nil, vals[:0]); err != nil || len(out) == 0 {
						b.Fatalf("%q: %v", line, err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(l.lines)), "ns/line")
		})
	}
}
