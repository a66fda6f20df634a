package dyncq

import (
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dyncq/internal/dyndb"
	"dyncq/internal/workload"
)

func TestParseUpdate(t *testing.T) {
	cases := []struct {
		in   string
		want Update
	}{
		{"+E(1,2)", dyndb.Insert("E", 1, 2)},
		{"E(1,2)", dyndb.Insert("E", 1, 2)},
		{"-E(1,2)", dyndb.Delete("E", 1, 2)},
		{"  - T( 7 ) ", dyndb.Delete("T", 7)},
		{"+R_1(-3,0,42)", dyndb.Insert("R_1", -3, 0, 42)},
	}
	for _, c := range cases {
		got, err := ParseUpdate(c.in)
		if err != nil {
			t.Errorf("ParseUpdate(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseUpdate(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "E", "E()", "+(1)", "E(1", "E(a)", "E(1,,2)", "+-E(1,2)", "1E(1)", "E x(1)"} {
		if _, err := ParseUpdate(bad); err == nil {
			t.Errorf("ParseUpdate(%q): want error", bad)
		}
	}
}

// TestParseUpdateRejectsExplicitly pins the hardened rejections: doubled
// signs and interior/trailing garbage fail with errors naming the
// offence, not whatever a downstream rule tripped over first.
func TestParseUpdateRejectsExplicitly(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"+-E(1,2)", "doubled sign"},
		{"-+E(1,2)", "doubled sign"},
		{"--E(1)", "doubled sign"},
		{"+ +E(1)", "doubled sign"},
		{"E(1,2)x", "garbage after ')'"},
		{"E(1,2) extra", "garbage after ')'"},
		{"E(1,2) # trailing comment", "garbage after ')'"},
		{"E(1)(2)", "garbage after ')'"},
		{"E(1,2", "missing ')'"},
		{"E(1 2)", "not an int64"},
		{"E(0x1)", "not an int64"},
		{"E(1,,2)", "empty tuple entry"},
		{"E(1,2,)", "empty tuple entry"},
		{"E()", "empty tuple"},
		{"+", "want [+|-]R"},
		{"-", "want [+|-]R"},
	}
	for _, c := range cases {
		_, err := ParseUpdate(c.in)
		if err == nil {
			t.Errorf("ParseUpdate(%q): want error containing %q, got nil", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseUpdate(%q): error %q does not mention %q", c.in, err, c.wantSub)
		}
	}
}

// TestApplyStreamReader: streams apply in batches through the workspace, and
// an arity mismatch against the registered query is reported with the
// offending line number at apply time.
func TestApplyStreamReader(t *testing.T) {
	s := NewWorkspace(WorkspaceOptions{})
	h, err := s.Register("q", "Q(y) :- E(x,y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	n, err := ApplyStreamReader(s, NewStreamReader(strings.NewReader(`
# initial data
+E(1,2)
+E(3,2)
+T(2)
-E(3,2)
`)), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("net applied = %d, want 4 (E(3,2) is inserted and deleted in different batches, so both count)", n)
	}
	if got := h.Count(); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
	// Arity mismatch against the query: line-attributed error.
	_, err = ApplyStreamReader(s, NewStreamReader(strings.NewReader("+E(1,2)\n+T(2,9)\n")), 0, nil)
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("want line-2 arity error, got %v", err)
	}
	// Parse errors also carry the line.
	_, err = ApplyStreamReader(s, NewStreamReader(strings.NewReader("+E(1,2)\n\n+-E(3,4)\n")), 0, nil)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line-3 parse error, got %v", err)
	}
}

// TestStreamReaderLineNumbers: comments and blanks advance the counter.
func TestStreamReaderLineNumbers(t *testing.T) {
	sr := NewStreamReader(strings.NewReader("# c\n\n+E(1,2)\n# c\n-E(1,2)\n"))
	u, line, err := sr.Next()
	if err != nil || line != 3 || u.Rel != "E" {
		t.Fatalf("first Next = %v line %d err %v, want E line 3", u, line, err)
	}
	u, line, err = sr.Next()
	if err != nil || line != 5 || u.Op != OpDelete {
		t.Fatalf("second Next = %v line %d err %v, want delete line 5", u, line, err)
	}
	if _, _, err := sr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := map[string]int{"E": 2, "T": 1, "S": 3}
	stream := workload.RandomStream(rng, schema, 20, 300, 0.4)
	var b strings.Builder
	b.WriteString("# header comment\n\n")
	for _, u := range stream {
		b.WriteString(FormatUpdate(u))
		b.WriteByte('\n')
	}
	got, err := readStream(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, stream) {
		t.Fatalf("round trip mismatch: got %d updates, want %d", len(got), len(stream))
	}
}

// readStream reads a whole update stream through a StreamReader.
func readStream(r io.Reader) ([]Update, error) {
	var out []Update
	sr := NewStreamReader(r)
	for {
		u, _, err := sr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, u)
	}
}

func TestStreamReaderReportsLine(t *testing.T) {
	_, err := readStream(strings.NewReader("+E(1,2)\nbogus line\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}

// TestStreamReaderStrings: in string mode (UseStrings) tuple entries are
// constants the reader's encoder turns into values — "42" included — and
// malformed input is rejected as in int mode, plus an entry holding '(';
// the StreamReader plumbs the mode end to end.
func TestStreamReaderStrings(t *testing.T) {
	var names []string // names[code-1], the test's decoder
	codes := make(map[string]Value)
	encode := func(name string) Value {
		c, ok := codes[name]
		if !ok {
			names = append(names, name)
			c = Value(len(names))
			codes[name] = c
		}
		return c
	}
	parse := func(line string) (Update, error) {
		sr := NewStreamReader(strings.NewReader(line))
		sr.UseStrings(encode)
		u, _, err := sr.Next()
		return u, err
	}
	u, err := parse("+E(alice, bob)")
	if err != nil {
		t.Fatal(err)
	}
	if u.Rel != "E" || len(u.Tuple) != 2 {
		t.Fatalf("parsed %v", u)
	}
	if names[u.Tuple[0]-1] != "alice" || names[u.Tuple[1]-1] != "bob" {
		t.Fatalf("decoded %q, %q", names[u.Tuple[0]-1], names[u.Tuple[1]-1])
	}
	// The same name maps to the same code; integers are strings here.
	u2, err := parse("-E(alice, 42)")
	if err != nil {
		t.Fatal(err)
	}
	if u2.Op != OpDelete || u2.Tuple[0] != u.Tuple[0] {
		t.Fatalf("re-encoded alice differently: %v vs %v", u2, u)
	}
	if names[u2.Tuple[1]-1] != "42" {
		t.Fatalf("string mode decoded %q, want \"42\"", names[u2.Tuple[1]-1])
	}
	// Malformed input is rejected exactly as in int mode, and an entry
	// holding '(' is rejected by name: "+E(a(b,c)" is not the constant
	// "a(b" followed by "c".
	for line, want := range map[string]string{
		"+-E(a)":    "doubled sign",
		"E(a) junk": "garbage after ')'",
		"+E(a(b,c)": `line 1: malformed update "+E(a(b,c)": tuple entry 1 ("a(b") contains '('`,
		"E(a, (b)":  `tuple entry 2 ("(b") contains '('`,
	} {
		if u, err := parse(line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q in string mode: %v, %v; want an error containing %q", line, u, err, want)
		}
	}

	// End to end: a string-mode stream through a workspace.
	ws := NewWorkspace(WorkspaceOptions{})
	h, err := ws.Register("q", "Q(y) :- E(x,y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(strings.NewReader("+E(alice,bob)\n+T(bob)\n-E(alice,bob)\n+E(carol,bob)\n"))
	sr.UseStrings(encode)
	applied, err := ApplyStreamReader(ws, sr, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("stream applied nothing")
	}
	tuples := h.Tuples()
	if len(tuples) != 1 || names[tuples[0][0]-1] != "bob" {
		t.Fatalf("result %v, want [bob]", tuples)
	}
}
