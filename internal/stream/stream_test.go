package stream

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"dyncq/internal/allocs"
	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
)

// TestIdentifierRuleShared: a relation name is valid in an update line
// exactly when it is valid in a query, and names the same relation —
// both parsers read identifiers as UTF-8 runes by one rule. A Latin-1
// byte is not a letter, and an invalid byte is not an identifier anywhere.
func TestIdentifierRuleShared(t *testing.T) {
	for _, c := range []struct {
		name  string
		valid bool
	}{
		{"Eé", true},     // a two-byte letter: one rune, not two Latin-1 bytes
		{"E\xc0", false}, // a stray lead byte: a name no update line could reach
		{"E\xe9", false}, // é in Latin-1: not UTF-8
		{"é", true},      // a non-ASCII first letter
		{"Eπ2'", true},   // letters, a digit, a prime
		{"_", true},      // the underscore alone
		{"1E", false},    // a digit first
		{"É", false},    // a combining mark is not a letter
		{"E x", false},   // nor is a no-break space, inside a name
	} {
		q, qerr := cq.Parse(fmt.Sprintf("Q(x) :- %s(x)", c.name))
		_, rel, tuple, uerr := Parse("+"+c.name+"(1)", nil, nil)
		_, brel, _, berr := Parse([]byte("+"+c.name+"(1)"), nil, nil)
		if (qerr == nil) != c.valid || (uerr == nil) != c.valid || (berr == nil) != c.valid {
			t.Errorf("%q: query error %v, update error %v, byte update error %v; want valid=%v", c.name, qerr, uerr, berr, c.valid)
			continue
		}
		if c.valid && (q.Atoms[0].Rel != c.name || rel != c.name || string(brel) != c.name || !slices.Equal(tuple, []dyndb.Value{1})) {
			t.Errorf("%q: the query names %q, the update %q / %q %v", c.name, q.Atoms[0].Rel, rel, brel, tuple)
		}
	}
}

// TestArena: an arena hands out tuples that survive the lines parsed
// after them until Reset, appends after a rejected line as if it had not
// been, and interns names up to its cap.
func TestArena(t *testing.T) {
	var a Arena
	var held []dyndb.Update
	for i := 0; i < 200; i++ {
		line := fmt.Sprintf("+R%d(%d,%d)", i, i, -i)
		if i%7 == 3 {
			if _, err := a.Parse([]byte("+R(1,x)")); err == nil {
				t.Fatal("accepted a non-integer entry")
			}
		}
		u, err := a.Parse([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, u)
	}
	for i, u := range held {
		if want := fmt.Sprintf("R%d", i); u.Rel != want || !slices.Equal(u.Tuple, []dyndb.Value{dyndb.Value(i), dyndb.Value(-i)}) || cap(u.Tuple) != 2 {
			t.Fatalf("update %d reads %v (cap %d) after the others were parsed", i, u, cap(u.Tuple))
		}
	}
	if len(a.names.m) != namesCap {
		t.Fatalf("the name table holds %d names, want its cap %d", len(a.names.m), namesCap)
	}
	a.Reset()
	if u, err := a.Parse([]byte("-R5(0)")); err != nil || unsafe.StringData(u.Rel) != unsafe.StringData(held[5].Rel) {
		t.Fatalf("after Reset: %v, %v — want the interned name", u, err)
	}
}

// TestArenaParseAllocationFree: a line parsed into a reset arena, with
// a name the arena has interned, allocates nothing under Reset and Parse
// (allocs.Count) over 1,000 lines, while the first line of a fresh
// arena, which grows its array and interns its name, is counted.
func TestArenaParseAllocationFree(t *testing.T) {
	frames := []string{"dyncq/internal/stream.(*Arena).Reset", "dyncq/internal/stream.(*Arena).Parse"}
	var a Arena
	line := []byte("-R5(0,1)")
	parse := func() {
		a.Reset()
		if _, err := a.Parse(line); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := allocs.Count(parse, frames...); n == 0 {
		t.Fatal("a fresh arena's first line counted no allocation: the frames name nothing")
	}
	n, stacks := allocs.Count(func() {
		for range 1000 {
			parse()
		}
	}, frames...)
	if n != 0 {
		t.Fatalf("1,000 lines parsed into a reset arena allocated %d times, want 0:\n%s", n, strings.Join(stacks, "\n"))
	}
}

// TestParseStrings: with an encoder, entries are string constants — "42"
// included — and an entry holding '(' is rejected by name, from a string
// and from bytes alike, as int mode rejects it for not being an int64.
func TestParseStrings(t *testing.T) {
	var seen []string
	encode := func(s string) dyndb.Value {
		seen = append(seen, s)
		return dyndb.Value(len(seen))
	}
	op, rel, tuple, err := Parse(" -E( alice ,42) ", encode, nil)
	if err != nil || op != dyndb.OpDelete || rel != "E" || !slices.Equal(tuple, []dyndb.Value{1, 2}) || !slices.Equal(seen, []string{"alice", "42"}) {
		t.Fatalf("string mode: %v %q %v %v, encoded %q", op, rel, tuple, err, seen)
	}
	for _, c := range []struct {
		line   string
		encode func(string) dyndb.Value
		want   string
	}{
		{"+E(a(b,c)", encode, `malformed update "+E(a(b,c)": tuple entry 1 ("a(b") contains '('`},
		{"+E(a, (b)", encode, `malformed update "+E(a, (b)": tuple entry 2 ("(b") contains '('`},
		{"+E(1(2,3)", nil, `malformed update "+E(1(2,3)": tuple entry 1 ("1(2") is not an int64`},
	} {
		vals := []dyndb.Value{7}
		_, _, out, err := Parse(c.line, c.encode, vals)
		_, _, bout, berr := Parse([]byte(c.line), c.encode, vals)
		if err == nil || err.Error() != c.want || berr == nil || berr.Error() != c.want {
			t.Errorf("%q: errors %v / %v, want %s", c.line, err, berr, c.want)
		}
		if !slices.Equal(out, vals) || !slices.Equal(bout, vals) {
			t.Errorf("%q: a rejected line returned %v / %v, want vals %v", c.line, out, bout, vals)
		}
	}
}
