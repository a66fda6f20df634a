package main

import (
	"io"
	"os"
	"strings"
	"testing"
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
