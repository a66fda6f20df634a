package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dyncq/internal/stream"
	"dyncq/internal/workload"
	"dyncq/pkg/dyncq"
)

// readAll reads text through a fresh reader for schema and returns the
// updates it handed over and their line numbers.
func readAll(schema map[string]int, encode func(string) dyncq.Value, text string) ([]dyncq.Update, []int, error) {
	var got []dyncq.Update
	var lines []int
	_, err := newUpdateReader(schema, encode).read("f", strings.NewReader(text), func(u dyncq.Update, line int) error {
		got = append(got, u)
		lines = append(lines, line)
		return nil
	})
	return got, lines, err
}

// writeFile writes text to a new file in the test's directory and returns
// its path.
func writeFile(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadUpdatesLineNumbers: comments and blanks advance the counter.
func TestReadUpdatesLineNumbers(t *testing.T) {
	got, lines, err := readAll(map[string]int{"E": 2}, nil, "# c\n\n+E(1,2)\n# c\n-E(1,2)\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []dyncq.Update{dyncq.Insert("E", 1, 2), dyncq.Delete("E", 1, 2)}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(lines, []int{3, 5}) {
		t.Fatalf("read %v at lines %v, want %v at lines [3 5]", got, lines, want)
	}
}

// TestReadUpdatesReportsLine: the first malformed line stops the reader
// with an error naming it, after the lines before it were handed over and
// none after; a line over the cap is named by the line it follows.
func TestReadUpdatesReportsLine(t *testing.T) {
	schema := map[string]int{"E": 2, "T": 1}
	got, lines, err := readAll(schema, nil, "+E(1,2)\n# fine\n++T(1)\n+T(2)\n")
	if err == nil || !strings.HasPrefix(err.Error(), "f: line 3: ") || !strings.Contains(err.Error(), "doubled sign") {
		t.Fatalf("want a line-3 doubled-sign error, got %v", err)
	}
	if len(got) != 1 || !reflect.DeepEqual(lines, []int{1}) {
		t.Fatalf("handed over %v at lines %v before the error, want line 1 alone", got, lines)
	}
	if _, _, err := readAll(schema, nil, "+E(1,2)\nbogus line\n"); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want a line-2 error, got %v", err)
	}
	long := io.MultiReader(strings.NewReader("+E(1,2)\n+E("), strings.NewReader(strings.Repeat("1", maxUpdateLine)))
	_, err = newUpdateReader(schema, nil).read("f", long, func(dyncq.Update, int) error { return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "f: after line 1: ") {
		t.Fatalf("a line over the cap: error %v, want one after line 1", err)
	}
}

// TestReadUpdatesStrings: in string mode tuple entries are constants the
// encoder turns into values — "42" included — and malformed input is
// rejected as in int mode, plus an entry holding '('. End to end, a
// string-mode file commits through a workspace in batches.
func TestReadUpdatesStrings(t *testing.T) {
	d := newDict()
	parse := func(line string) (dyncq.Update, error) {
		got, _, err := readAll(map[string]int{"E": 2}, d.Encode, line)
		if err != nil {
			return dyncq.Update{}, err
		}
		return got[0], nil
	}
	u, err := parse("+E(alice, bob)")
	if err != nil {
		t.Fatal(err)
	}
	if u.Rel != "E" || len(u.Tuple) != 2 || d.names[u.Tuple[0]-1] != "alice" || d.names[u.Tuple[1]-1] != "bob" {
		t.Fatalf("parsed %v", u)
	}
	// The same name maps to the same code; integers are strings here.
	u2, err := parse("-E(alice, 42)")
	if err != nil {
		t.Fatal(err)
	}
	if u2.Op != dyncq.OpDelete || u2.Tuple[0] != u.Tuple[0] || d.names[u2.Tuple[1]-1] != "42" {
		t.Fatalf("parsed %v after %v, want alice's code again and the string 42", u2, u)
	}
	for line, want := range map[string]string{
		"+-E(a)":    "doubled sign",
		"E(a) junk": "garbage after ')'",
		"+E(a(b,c)": `f: line 1: malformed update "+E(a(b,c)": tuple entry 1 ("a(b") contains '('`,
		"E(a, (b)":  `tuple entry 2 ("(b") contains '('`,
	} {
		if u, err := parse(line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q in string mode: %v, %v; want an error containing %q", line, u, err, want)
		}
	}

	ws := dyncq.NewWorkspace(dyncq.WorkspaceOptions{})
	h, err := ws.Register("q", "Q(y) :- E(x,y), T(y)")
	if err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, "s.txt", "+E(alice,bob)\n+T(bob)\n-E(alice,bob)\n+E(carol,bob)\n")
	out := runCaptured(t, func([]string) error {
		return applyStreamFile(ws, newUpdateReader(ws.Schema(), d.Encode), path, 2)
	})
	if !strings.HasSuffix(out, "(4 net changes)\n") {
		t.Fatalf("output %q, want four net changes", out)
	}
	tuples := h.Tuples()
	if len(tuples) != 1 || d.names[tuples[0][0]-1] != "bob" {
		t.Fatalf("result %v, want [bob]", tuples)
	}
}

// TestRunUpdatesInBatches: run commits an update file in batches through
// the workspace, and a line whose arity differs from the query's, or that
// does not parse, is reported by its line number.
func TestRunUpdatesInBatches(t *testing.T) {
	q := "Q(y) :- E(x,y), T(y)"
	path := writeFile(t, "u.txt", "\n# initial data\n+E(1,2)\n+E(3,2)\n+T(2)\n-E(3,2)\n")
	out := runCaptured(t, cmdRun, "-q", q, "-updates", path, "-batch", "2", "-count")
	// E(3,2) is inserted and deleted in different batches, so both count.
	for _, want := range []string{"applied:  4 updates from " + path + " in batches of 2 (4 net changes)\n", "count q:       1\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output:\n%s\nwant it to contain %q", out, want)
		}
	}
	for text, want := range map[string]string{
		"+E(1,2)\n+T(2,9)\n":    "line 2: T has arity 1 in the query, got tuple of length 2",
		"+E(1,2)\n\n+-E(3,4)\n": "line 3: malformed update",
	} {
		path := writeFile(t, "bad.txt", text)
		if out := runCaptured(t, cmdRun, "-q", q, "-updates", path); !strings.Contains(out, "dyncq: "+path+": "+want) {
			t.Errorf("%q: output:\n%s\nwant an error naming %q", text, out, want)
		}
	}
}

// TestRunArityClashNamesLine: a relation outside the query keeps the arity
// its first line gave it, across the -data and the -updates file of one
// run, and a later line of another arity is rejected naming its line, in
// one wording on every path: loaded with -data, and committed with
// -updates in one batch or in batches of one (where the workspace would
// otherwise reject it without a line, as a clash in the batch or with the
// store).
func TestRunArityClashNamesLine(t *testing.T) {
	q := "Q(y) :- E(x,y), T(y)"
	path := writeFile(t, "clash.txt", "+E(1,2)\n+X(1)\n+T(2)\n+X(1,2)\n")
	want := "dyncq: " + path + ": line 4: X has arity 1 from line 2 of " + path + ", got tuple of length 2\n"
	for _, args := range [][]string{
		{"-data", path},
		{"-updates", path, "-batch", "0"},
		{"-updates", path, "-batch", "1"},
	} {
		if out := runCaptured(t, cmdRun, append([]string{"-q", q}, args...)...); !strings.HasSuffix(out, want) {
			t.Errorf("%v: output:\n%s\nwant it to end with:\n%s", args, out, want)
		}
	}
	data := writeFile(t, "data.txt", "+X(1)\n")
	upd := writeFile(t, "upd.txt", "+T(2)\n+X(1,2)\n")
	want = "dyncq: " + upd + ": line 2: X has arity 1 from line 1 of " + data + ", got tuple of length 2\n"
	for _, batch := range []string{"0", "1"} {
		if out := runCaptured(t, cmdRun, "-q", q, "-data", data, "-updates", upd, "-batch", batch); !strings.HasSuffix(out, want) {
			t.Errorf("-batch %s: output:\n%s\nwant it to end with:\n%s", batch, out, want)
		}
	}
}

// formatWithNoise writes stream in the line format with comment and blank
// lines between its updates, and returns the text and each update's line.
func formatWithNoise(rng *rand.Rand, stream []dyncq.Update) (string, []int) {
	var b strings.Builder
	lines := make([]int, len(stream))
	line := 0
	for i, u := range stream {
		for rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				b.WriteString("# comment noise\n")
			} else {
				b.WriteString("\n")
			}
			line++
		}
		b.WriteString(dyncq.FormatUpdate(u))
		b.WriteByte('\n')
		line++
		lines[i] = line
	}
	return b.String(), lines
}

// TestReadUpdatesRoundTrip: a formatted stream reads back update for
// update, each at its exact line, over a random stream and the torture
// generator's streams at several seeds, comment and blank noise
// interleaved.
func TestReadUpdatesRoundTrip(t *testing.T) {
	type streamCase struct {
		schema map[string]int
		stream []dyncq.Update
	}
	random := map[string]int{"E": 2, "T": 1, "S": 3}
	cases := map[string]streamCase{
		"random": {random, workload.RandomStream(rand.New(rand.NewSource(3)), random, 20, 300, 0.4)},
	}
	torture := map[string]int{"E": 2, "S": 1, "T": 1}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := workload.TortureConfig{Seed: seed, Domain: 60, Updates: 500, PDelete: 0.3}
		cases[fmt.Sprintf("torture-seed=%d", seed)] = streamCase{torture, cfg.Stream(torture)}
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			stream := c.stream
			text, wantLines := formatWithNoise(rand.New(rand.NewSource(int64(len(stream)))), stream)
			got, lines, err := readAll(c.schema, nil, text)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, stream) || !reflect.DeepEqual(lines, wantLines) {
				t.Fatalf("read %d updates at lines %v…, want %d at %v…", len(got), lines[:min(len(lines), 8)], len(stream), wantLines[:min(len(wantLines), 8)])
			}
		})
	}
}

// FuzzReadUpdates: on one line, in string mode, the reader skips a blank
// or #-comment line and otherwise does what stream.Parse does on the line
// with surrounding white space trimmed — the same update, or the same
// error prefixed with the file name and "line 1: ". Each side encodes
// through a fresh dictionary, so equal constants get equal codes. Explore
// with go test -fuzz=FuzzReadUpdates ./cmd/dyncq.
func FuzzReadUpdates(f *testing.F) {
	for _, seed := range []string{
		"+E(alice, bob)", "-E(alice,42)", "E(x y)", "+E(a(b,c)", "E(a,(b)",
		"", "#E(1)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if strings.Contains(line, "\n") {
			return // the reader splits at newlines; one line is compared
		}
		s := strings.TrimSpace(line)
		op, rel, tuple, perr := stream.Parse(s, newDict().Encode, nil)
		// The query names the line's relation at its arity, so the reader
		// neither warns nor rejects an arity.
		got, _, err := readAll(map[string]int{rel: len(tuple)}, newDict().Encode, line)
		if s == "" || s[0] == '#' {
			if err != nil || len(got) != 0 {
				t.Fatalf("read(%q) = %v, %v; want the line skipped", line, got, err)
			}
			return
		}
		switch {
		case perr != nil:
			if want := "f: line 1: " + perr.Error(); err == nil || err.Error() != want {
				t.Fatalf("read(%q): error %v, want %q", line, err, want)
			}
		case err != nil:
			t.Fatalf("read(%q): %v; stream.Parse accepts it", line, err)
		default:
			want := dyncq.Update{Op: op, Rel: rel, Tuple: tuple}
			if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
				t.Fatalf("read(%q) = %v, want [%v]", line, got, want)
			}
		}
	})
}
