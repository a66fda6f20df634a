// Command dyncq-lint runs the project's custom go/analysis suite (see
// internal/analysis): lockorder, determinism, decodeboundary, and
// hotalloc — the compile-time guards for the engine's concurrency,
// determinism, interning, and hot-path allocation invariants.
//
// It speaks the `go vet -vettool` protocol, so both forms work:
//
//	go build -o bin/dyncq-lint ./cmd/dyncq-lint
//	go vet -vettool=bin/dyncq-lint ./...
//
//	go run ./cmd/dyncq-lint ./...        # standalone: re-execs go vet
//	go run ./cmd/dyncq-lint -github ./... # findings as ::error annotations
//
// The -github mode rewrites findings into GitHub Actions workflow
// commands (::error file=...,line=...,col=...::message) so CI failures
// surface as PR annotations on the offending lines.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"

	"dyncq/internal/analysis"

	"golang.org/x/tools/go/analysis/unitchecker"
)

func main() {
	if vetProtocol(os.Args[1:]) {
		unitchecker.Main(analysis.Analyzers()...) // exits
	}

	fs := flag.NewFlagSet("dyncq-lint", flag.ExitOnError)
	github := fs.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dyncq-lint [-github] [packages]\n\nRuns the dyncq analyzer suite via go vet. Default package pattern is ./...\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(runVet(patterns, *github))
}

// vetProtocol reports whether the arguments are the go vet -vettool
// driver protocol rather than a human invocation: a version query
// (-V=full), a flag probe (-flags), or a unit config file.
func vetProtocol(args []string) bool {
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "-flags":
			return true
		case strings.HasSuffix(a, ".cfg"):
			return true
		}
	}
	return false
}

// findingRe matches one go vet diagnostic line: path.go:line:col: message.
var findingRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// runVet re-executes this binary through go vet and streams the
// findings, optionally rewritten as GitHub annotations. Returns the
// exit code to use.
func runVet(patterns []string, github bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dyncq-lint: %v\n", err)
		return 2
	}
	args := append([]string{"vet", "-vettool=" + exe}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stdout = os.Stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dyncq-lint: %v\n", err)
		return 2
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "dyncq-lint: %v\n", err)
		return 2
	}
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if m := findingRe.FindStringSubmatch(line); m != nil && github {
			// Workflow commands are read from stdout; keep the human
			// line on stderr too so plain logs stay readable.
			fmt.Printf("::error file=%s,line=%s,col=%s::%s\n", m[1], m[2], m[3], escapeAnnotation(m[4]))
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if err := cmd.Wait(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "dyncq-lint: %v\n", err)
		return 2
	}
	return 0
}

// escapeAnnotation escapes the characters the workflow-command parser
// treats specially in message data.
func escapeAnnotation(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}
