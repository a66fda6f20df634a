package main

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"dyncq/pkg/dyncq"
)

// runCaptured runs one subcommand in process with stdout and stderr
// going to one pipe, and returns what the dyncq binary would print for
// it: the output in write order, then the "dyncq: <error>" line main
// adds when the subcommand fails.
func runCaptured(t *testing.T, cmd func([]string) error, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = w, w
	func() {
		defer func() { os.Stdout, os.Stderr = stdout, stderr }()
		err = cmd(args)
	}()
	w.Close()
	out := <-done
	if err != nil {
		out += "dyncq: " + err.Error() + "\n"
	}
	return out
}

// TestGolden holds run and classify to the output files in testdata,
// each made by running the dyncq binary from this directory with the
// case's arguments, stdout and stderr into the file:
//
//	dyncq run -q '…' -data testdata/… > testdata/<case>.golden 2>&1
//
// The classify cases pin today's routing, so a routing change shows up
// here as a diff.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		cmd  func([]string) error
		args []string
	}{
		{"run_int", cmdRun, []string{"-query", "a=Q(y) :- E(x,y), T(y)", "-query", "b=Q(x,y) :- E(x,y), T(y)",
			"-data", "testdata/int_data.txt", "-updates", "testdata/int_updates.txt", "-count", "-answer", "-enumerate"}},
		{"run_strings", cmdRun, []string{"-q", "Q(x,y) :- E(x,y), T(y)", "-strings",
			"-data", "testdata/people.txt", "-updates", "testdata/people_updates.txt", "-count", "-enumerate", "-stats"}},
		{"run_strings_batch", cmdRun, []string{"-q", "Q(y) :- E(x,y), T(y)", "-strings",
			"-data", "testdata/people.txt", "-updates", "testdata/people_updates.txt", "-batch", "3", "-count", "-enumerate", "-stats"}},
		{"run_stats_ints", cmdRun, []string{"-q", "Q(y) :- E(x,y), T(y)",
			"-data", "testdata/int_data.txt", "-updates", "testdata/int_updates.txt", "-stats", "-count", "-enumerate"}},
		{"run_strings_malformed", cmdRun, []string{"-q", "Q(y) :- E(x,y), T(y)", "-strings",
			"-updates", "testdata/bad_strings.txt", "-count"}},
		{"classify_ivm", cmdClassify, []string{"-q", "Q(x) :- E(x,y), E(z,y)"}},
		{"classify_boolean", cmdClassify, []string{"-q", "Q() :- E(x,x), E(x,y), E(y,y)"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + c.name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if got := runCaptured(t, c.cmd, c.args...); got != string(want) {
				t.Errorf("output differs from testdata/%s.golden\n--- got\n%s--- want\n%s", c.name, got, want)
			}
		})
	}
}

// TestStringsRejectParenInEntry: in string mode an entry holding '(' is
// rejected, naming the file, the line and the entry — "+E(a(b,c)" is not
// the constant "a(b" followed by "c".
func TestStringsRejectParenInEntry(t *testing.T) {
	out := runCaptured(t, cmdRun, "-q", "Q(x,y) :- E(x,y), T(y)", "-strings",
		"-updates", "testdata/paren_strings.txt", "-enumerate")
	want := `dyncq: testdata/paren_strings.txt: line 2: malformed update "+E(a(b,c)": tuple entry 1 ("a(b") contains '('` + "\n"
	if !strings.HasSuffix(out, want) {
		t.Fatalf("output:\n%s\nwant it to end with:\n%s", out, want)
	}
}

// TestQueryNaming: run and serve name their -query arguments through
// queryFlags.parse, which names the bare queries q1, q2, … around the
// names given explicitly, whatever their order.
func TestQueryNaming(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"Q(x) :- E(x,y)", "q1=Q(x) :- T(x)"}, []string{"q2", "q1"}},
		{[]string{"q2=Q(x) :- E(x,y)", "Q(x) :- T(x)", "Q(x) :- S(x)"}, []string{"q2", "q1", "q3"}},
	}
	for _, c := range cases {
		named, err := queryFlags(c.args).parse()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, nq := range named {
			got = append(got, nq.name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q named %v, want %v", c.args, got, c.want)
		}
	}
	if _, err := queryFlags([]string{"a=Q(x) :- "}).parse(); err == nil || !strings.HasPrefix(err.Error(), "query a: ") {
		t.Errorf("malformed named query: error %v, want one naming query a", err)
	}
}

// TestParseStrategy: the three -strategy names round-trip through
// dyncq.Strategy's String, and anything else — "recompute" included — is
// rejected with an error that names the accepted values.
func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		name string
		want dyncq.Strategy
		ok   bool
	}{
		{"auto", dyncq.StrategyAuto, true},
		{"core", dyncq.StrategyCore, true},
		{"ivm", dyncq.StrategyIVM, true},
		{"recompute", dyncq.StrategyAuto, false},
		{"nope", dyncq.StrategyAuto, false},
		{"", dyncq.StrategyAuto, false},
		{"CORE", dyncq.StrategyAuto, false},
		{" ivm", dyncq.StrategyAuto, false},
	} {
		t.Run(fmt.Sprintf("name=%q", tc.name), func(t *testing.T) {
			got, err := parseStrategy(tc.name)
			if !tc.ok {
				if err == nil || !strings.Contains(err.Error(), "auto, core or ivm") {
					t.Fatalf("parseStrategy(%q): error %v, want one naming auto, core or ivm", tc.name, err)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("parseStrategy(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
			}
			if got.String() != tc.name {
				t.Fatalf("%v.String() = %q, want %q", got, got.String(), tc.name)
			}
		})
	}
}
