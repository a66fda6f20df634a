package dyncq

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"dyncq/internal/dyndb"
	"dyncq/internal/stream"
)

// parseUpdateReference is the stream-line parser as it stood before the
// grammar moved to internal/stream and learned to parse in place — trim,
// split, strconv — kept as the yardstick FuzzParseUpdate holds the one
// parser to: the same lines accepted, the same updates, the same error
// texts. A non-nil encode is string mode, which since then also rejects
// an entry holding '(' — "+E(a(b,c)" is not the constant "a(b".
func parseUpdateReference(line string, encode func(string) Value) (Update, error) {
	s := strings.TrimSpace(line)
	if s == "" {
		return Update{}, fmt.Errorf("malformed update %q: empty command (want [+|-]R(v1,…,vr))", line)
	}
	op := dyndb.OpInsert
	switch s[0] {
	case '+':
		s = strings.TrimSpace(s[1:])
	case '-':
		op = dyndb.OpDelete
		s = strings.TrimSpace(s[1:])
	}
	// A second sign after the first is a doubled sign ("+-E(1,2)"), not a
	// weird relation name: reject it explicitly.
	if s != "" && (s[0] == '+' || s[0] == '-') {
		return Update{}, fmt.Errorf("malformed update %q: doubled sign", line)
	}
	open := strings.IndexByte(s, '(')
	if open <= 0 {
		return Update{}, fmt.Errorf("malformed update %q (want [+|-]R(v1,…,vr))", line)
	}
	closing := strings.IndexByte(s, ')')
	switch {
	case closing < 0:
		return Update{}, fmt.Errorf("malformed update %q: missing ')'", line)
	case closing != len(s)-1:
		return Update{}, fmt.Errorf("malformed update %q: garbage after ')': %q", line, s[closing+1:])
	}
	rel := strings.TrimSpace(s[:open])
	if !validRelNameReference(rel) {
		return Update{}, fmt.Errorf("malformed update %q: invalid relation name %q", line, rel)
	}
	body := s[open+1 : closing]
	var tuple []Value
	for i, f := range strings.Split(body, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			if i == 0 && !strings.Contains(body, ",") {
				return Update{}, fmt.Errorf("malformed update %q: empty tuple", line)
			}
			return Update{}, fmt.Errorf("malformed update %q: empty tuple entry %d", line, i+1)
		}
		if encode != nil {
			if strings.Contains(f, "(") {
				return Update{}, fmt.Errorf("malformed update %q: tuple entry %d (%q) contains '('", line, i+1, f)
			}
			tuple = append(tuple, encode(f))
			continue
		}
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return Update{}, fmt.Errorf("malformed update %q: tuple entry %d (%q) is not an int64", line, i+1, f)
		}
		tuple = append(tuple, v)
	}
	return Update{Op: op, Rel: rel, Tuple: tuple}, nil
}

// validRelNameReference is the reference parser's identifier rule,
// verbatim: a letter or underscore followed by letters, digits,
// underscores or primes, over the runes of UTF-8 text.
func validRelNameReference(rel string) bool {
	if rel == "" {
		return false
	}
	for i, r := range rel {
		letter := r == '_' || unicode.IsLetter(r)
		if i == 0 {
			if !letter {
				return false
			}
			continue
		}
		if !letter && r != '\'' && !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// testEncoder returns a string-mode encoder of its own: the next code for
// each new constant, from 1.
func testEncoder() func(string) Value {
	codes := make(map[string]Value)
	return func(name string) Value {
		c, ok := codes[name]
		if !ok {
			c = Value(len(codes) + 1)
			codes[name] = c
		}
		return c
	}
}

// sameParse fails unless (got, gotErr) is what the reference made of line:
// both reject with the same text, or both accept the same update.
func sameParse(t *testing.T, via, line string, got Update, gotErr error, want Update, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s(%q): error %v, the reference's %v", via, line, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s(%q): error %q, the reference's %q", via, line, gotErr, wantErr)
	case gotErr == nil && (got.Op != want.Op || got.Rel != want.Rel || !slices.Equal(got.Tuple, want.Tuple)):
		t.Fatalf("%s(%q) = %v, the reference %v", via, line, got, want)
	}
}

// FuzzParseUpdate fuzzes the stream-format parser, seeded with the
// accept/reject corpus of the unit tests. Properties: the parser never
// panics; every accepted command has a valid relation name, a non-empty
// tuple, and round-trips exactly through FormatUpdate → ParseUpdate;
// commands with a doubled sign or text after the closing parenthesis are
// never accepted; and every entry — ParseUpdate, string mode (a
// test-local encoder handed to stream.Parse and, through UseStrings, to a
// StreamReader), and the byte entry
// stream.Arena.Parse driving a dirty, reused arena — does what the
// reference parser does, error text included, while the arena leaves the
// tuples it handed out before untouched. Run the baked-in corpus with go
// test; explore with go test -fuzz=FuzzParseUpdate ./pkg/dyncq.
func FuzzParseUpdate(f *testing.F) {
	for _, seed := range []string{
		// accepted forms
		"+E(1,2)", "E(1,2)", "-E(1,2)", "  - T( 7 ) ", "+R_1(-3,0,42)",
		"E'(9223372036854775807)", "_x(-9223372036854775808)", "+Eé(1)", "E(+5, 007)",
		" + E(1)\u0085", "E(1 )",
		// rejected forms
		"", "E", "E()", "+(1)", "E(1", "E(a)", "E(1,,2)", "+-E(1,2)",
		"1E(1)", "E x(1)", "--E(1)", "E(1,2)x", "E(1,2) # c", "E(1)(2)",
		"E(1 2)", "E(0x1)", "E(1,2,)", "+", "-", "E((1))", "E(١)",
		"#E(1)", "\x00E(1)", "E(18446744073709551615)", "+E\xc0(1)",
		"E)(1)", "E(9223372036854775808)", "E(-9223372036854775809)", "E(+)", "E(1_0)",
		// the layout AppendTupleLine writes, which Parse reads in one pass,
		// and lines a byte away from it
		"-q(-9223372036854775808)", "+q(007)", "+q(-0)", "+a_b'c(1,-2,3)", "-feed(81236,-9223372036854775808)",
		"+q(9223372036854775808)", "+q(1,+2)", "+q(1,)", "+q(1) ", "+1q(1)", "+q.x(1)", "+q(-)",
		// string mode: accepted there, or rejected only there
		"+E(alice, bob)", "-E(alice,42)", "E(x y)", "+E(a(b,c)", "E(a,(b)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		u, err := ParseUpdate(line)
		want, wantErr := parseUpdateReference(line, nil)
		sameParse(t, "ParseUpdate", line, u, err, want, wantErr)

		// String mode, on the grammar itself for every input…
		op, rel, tuple, perr := stream.Parse(line, testEncoder(), nil)
		pwant, pwantErr := parseUpdateReference(line, testEncoder())
		sameParse(t, "stream.Parse with an encoder", line, Update{Op: op, Rel: rel, Tuple: tuple}, perr, pwant, pwantErr)

		// …and through the reader that carries it. The reader
		// splits at newlines, so only a single line is compared; it skips
		// a blank or #-comment line, and parses (and quotes) the others
		// with surrounding white space trimmed.
		if !strings.Contains(line, "\n") {
			sr := NewStreamReader(strings.NewReader(line))
			sr.UseStrings(testEncoder())
			su, _, serr := sr.Next()
			switch s := strings.TrimSpace(line); {
			case s == "" || s[0] == '#':
				if serr != io.EOF {
					t.Fatalf("StreamReader(%q): %v, %v; want the line skipped", line, su, serr)
				}
			default:
				swant, swantErr := parseUpdateReference(s, testEncoder())
				if swantErr != nil {
					swantErr = fmt.Errorf("line 1: %w", swantErr)
				}
				sameParse(t, "StreamReader.UseStrings", line, su, serr, swant, swantErr)
			}
		}

		// The byte entry, into an arena whose spare capacity holds the
		// values of a longer line and which already handed out a tuple.
		var a stream.Arena
		if _, aerr := a.Parse([]byte("+W(7,7,7,7,7,7,7,7,7,7,7,7)")); aerr != nil {
			t.Fatal(aerr)
		}
		a.Reset()
		held, herr := a.Parse([]byte("-H(1,2)"))
		if herr != nil {
			t.Fatal(herr)
		}
		bu, berr := a.Parse([]byte(line))
		sameParse(t, "Arena.Parse", line, bu, berr, want, wantErr)
		if after, aerr := a.Parse([]byte("+A(3)")); aerr != nil || after.Tuple[0] != 3 {
			t.Fatalf("arena after %q: %v, %v", line, after, aerr)
		}
		if held.Rel != "H" || !slices.Equal(held.Tuple, []Value{1, 2}) || berr == nil && !slices.Equal(bu.Tuple, want.Tuple) {
			t.Fatalf("arena: parsing %q overwrote a tuple handed out before it (%v, %v)", line, held, bu)
		}

		if err != nil {
			return // rejection is always acceptable; not panicking is the point
		}
		if !validRelNameReference(u.Rel) {
			t.Fatalf("ParseUpdate(%q) accepted invalid relation name %q", line, u.Rel)
		}
		if len(u.Tuple) == 0 || cap(u.Tuple) != len(u.Tuple) {
			t.Fatalf("ParseUpdate(%q) returned a tuple of length %d, capacity %d", line, len(u.Tuple), cap(u.Tuple))
		}
		// No doubled sign can have been accepted.
		s := strings.TrimSpace(line)
		if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
			rest := strings.TrimSpace(s[1:])
			if len(rest) > 0 && (rest[0] == '+' || rest[0] == '-') {
				t.Fatalf("ParseUpdate(%q) accepted a doubled sign", line)
			}
		}
		// Nothing after the closing parenthesis can have been accepted.
		if i := strings.IndexByte(s, ')'); i >= 0 && i != len(s)-1 {
			t.Fatalf("ParseUpdate(%q) accepted trailing garbage", line)
		}
		// Round trip: format and reparse must reproduce the update exactly.
		formatted := FormatUpdate(u)
		if !utf8.ValidString(formatted) {
			t.Fatalf("FormatUpdate(%v) produced invalid UTF-8", u)
		}
		u2, err := ParseUpdate(formatted)
		if err != nil {
			t.Fatalf("round trip of %q: ParseUpdate(%q): %v", line, formatted, err)
		}
		if u2.Op != u.Op || u2.Rel != u.Rel || !slices.Equal(u2.Tuple, u.Tuple) {
			t.Fatalf("round trip of %q: %v != %v", line, u2, u)
		}
	})
}
