// Package torture is the deterministic torture/soak harness: a category
// matrix of seeded adversarial scenarios — parse, eval, error,
// lifecycle, concurrency, fan-out — that exercises every layer of the
// engine (the shared store and its indexes, arena-allocated
// core structures, interning, parallel workspace fan-out) simultaneously
// and checks each step against a naive reference oracle plus the
// engine's own invariants (Workspace.CheckInvariants: store bookkeeping,
// index content, core weights, lists and arenas).
//
// Design, in the style of the GCC torture suites and the Mangle engine
// torture spec: every scenario is a pure function of its seed — no
// network, no filesystem, no timing dependence in its verdict — so any
// failure anywhere (CI soak, a laptop) replays bit-identically from one
// `go test -run <case> -torture.seed=N` line. Scenarios are sized to
// run in well under a second each; the soak entry point scales coverage
// by running more seeds, never by growing a single case.
//
// The harness is test code: every file of the package is a _test.go
// file, so no binary links it. `go test ./internal/torture -run
// '^TestTorture$' -v` lists the matrix as its subtest names.
package torture

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// Scenario is one named, seeded torture case. Run must be deterministic
// in seed: it builds its own workloads from the seed and returns nil on
// success or an error describing the first violated check.
type Scenario struct {
	// Category groups the scenario in the matrix: parse, eval, error,
	// lifecycle, concurrency, fanout, snapshot, or server.
	Category string
	// Name identifies the scenario inside its category (no spaces, so
	// `go test -run` selectors match it verbatim).
	Name string
	// Brief is the one-line description of what the scenario checks.
	Brief string
	// Run executes the scenario with the given seed.
	Run func(seed int64) error
}

// Categories lists the matrix's categories in canonical order.
func Categories() []string {
	return []string{"parse", "eval", "error", "lifecycle", "concurrency", "fanout", "snapshot", "server"}
}

// All returns every scenario of the matrix, grouped by category in
// canonical order. The slice is freshly allocated; callers may filter it.
func All() []Scenario {
	var out []Scenario
	out = append(out, parseScenarios()...)
	out = append(out, evalScenarios()...)
	out = append(out, errorScenarios()...)
	out = append(out, lifecycleScenarios()...)
	out = append(out, concurrencyScenarios()...)
	out = append(out, fanoutScenarios()...)
	out = append(out, snapshotScenarios()...)
	out = append(out, serverScenarios()...)
	return out
}

// ByCategory returns the scenarios of one category (empty for an
// unknown category).
func ByCategory(cat string) []Scenario {
	var out []Scenario
	for _, sc := range All() {
		if sc.Category == cat {
			out = append(out, sc)
		}
	}
	return out
}

// ReproLine is the exact command reproducing one scenario run — the
// line every failure report carries, and the contract the failure-seed
// CI artifact is built on.
func ReproLine(sc Scenario, seed int64) string {
	return fmt.Sprintf("go test ./internal/torture -race -run 'TestTorture/%s/%s$' -torture.seed=%d",
		sc.Category, sc.Name, seed)
}

// Failure records one failed scenario run of a soak.
type Failure struct {
	Scenario Scenario
	Seed     int64
	Err      error
}

// Repro returns the reproduction command for the failure.
func (f Failure) Repro() string { return ReproLine(f.Scenario, f.Seed) }

// Soak runs the scenarios in rounds — round r runs every scenario with
// seed baseSeed+r — until the time budget is spent. Round 0 always
// completes, so a zero or tiny budget still covers the whole matrix
// once. A nil log discards progress lines. Failures are collected, not
// fatal: one bad seed must not mask another category's break in the
// same nightly run.
func Soak(scenarios []Scenario, baseSeed int64, budget time.Duration, log func(format string, args ...any)) []Failure {
	if log == nil {
		log = func(string, ...any) {}
	}
	start := time.Now()
	var failures []Failure
	runs := 0
	for round := 0; ; round++ {
		seed := baseSeed + int64(round)
		for _, sc := range scenarios {
			if round > 0 && time.Since(start) > budget {
				log("soak: budget spent after %d runs in %d round(s), %d failure(s)", runs, round, len(failures))
				return failures
			}
			runs++
			if err := sc.Run(seed); err != nil {
				failures = append(failures, Failure{Scenario: sc, Seed: seed, Err: err})
				log("FAIL %s/%s seed=%d: %v\n  repro: %s", sc.Category, sc.Name, seed, err, ReproLine(sc, seed))
			}
		}
		if round == 0 && budget <= 0 {
			log("soak: matrix completed once (%d runs), %d failure(s)", runs, len(failures))
			return failures
		}
		log("soak: round %d done (%d runs, %d failure(s), %s elapsed)", round, runs, len(failures), time.Since(start).Round(time.Millisecond))
	}
}

// rng derives an independent random stream for one purpose of a
// scenario: the salt is folded into the seed so two generators inside
// one scenario never mirror each other.
func rngFor(seed int64, salt string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", salt, seed)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// The harness flags. CI lanes drive them:
//
//	quick/deep PR lanes:  go test ./internal/torture -race -torture.seed=1
//	nightly soak:         go test ./internal/torture -race -torture.duration=10m \
//	                        -torture.failure-file=torture-failures.txt
//
// Any failure prints (and, for the soak, records) the exact one-command
// repro line, so a broken nightly is reproducible locally from the
// uploaded artifact alone.
var (
	tortureSeed = flag.Int64("torture.seed", 1,
		"base seed for the torture matrix; every failure names the exact seed to replay")
	tortureDuration = flag.Duration("torture.duration", 0,
		"soak budget for TestTortureSoak; 0 runs the matrix once and skips the soak")
	tortureFailures = flag.String("torture.failure-file", "",
		"file the soak writes repro lines to on failure (the CI failure-seed artifact)")
)

// TestTorture runs the whole category matrix once at -torture.seed.
// Every scenario is an independently addressable subtest:
//
//	go test ./internal/torture -race -run 'TestTorture/eval/star-oracle$' -torture.seed=7
func TestTorture(t *testing.T) {
	for _, cat := range Categories() {
		scenarios := ByCategory(cat)
		if len(scenarios) == 0 {
			t.Fatalf("category %q has no scenarios", cat)
		}
		t.Run(cat, func(t *testing.T) {
			for _, sc := range scenarios {
				sc := sc
				t.Run(sc.Name, func(t *testing.T) {
					t.Parallel()
					if err := sc.Run(*tortureSeed); err != nil {
						t.Fatalf("%v\nrepro: %s", err, ReproLine(sc, *tortureSeed))
					}
				})
			}
		})
	}
}

// TestTortureSeedIndependence replays two scenarios per category at a
// handful of extra seeds — the cheap guard that no scenario accidentally
// hard-codes behaviour only seed 1 exhibits.
func TestTortureSeedIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replay skipped in -short")
	}
	for _, cat := range Categories() {
		scenarios := ByCategory(cat)
		if len(scenarios) > 2 {
			scenarios = scenarios[:2]
		}
		for _, sc := range scenarios {
			sc := sc
			t.Run(fmt.Sprintf("%s/%s", sc.Category, sc.Name), func(t *testing.T) {
				t.Parallel()
				for _, seed := range []int64{2, 31337, -9} {
					if err := sc.Run(seed); err != nil {
						t.Fatalf("%v\nrepro: %s", err, ReproLine(sc, seed))
					}
				}
			})
		}
	}
}

// TestTortureArenaChunkSeeds replays fanout/arena-chunks-worker-identical
// at seeds 1..20, one subtest each. It is the only row whose core arenas
// span several chunks, so its free-chain recycling across chunk
// boundaries gets a wider seed sweep than the two rows per category
// TestTortureSeedIndependence covers.
func TestTortureArenaChunkSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replay skipped in -short")
	}
	var sc Scenario
	for _, s := range ByCategory("fanout") {
		if s.Name == "arena-chunks-worker-identical" {
			sc = s
		}
	}
	if sc.Run == nil {
		t.Fatal("fanout/arena-chunks-worker-identical is not registered")
	}
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if err := sc.Run(seed); err != nil {
				t.Fatalf("%v\nrepro: %s", err, ReproLine(sc, seed))
			}
		})
	}
}

// TestTortureSoak is the nightly entry point: rounds of the full matrix
// at consecutive seeds until -torture.duration is spent. It is skipped
// entirely at the default duration 0 so PR lanes pay nothing for it.
func TestTortureSoak(t *testing.T) {
	if *tortureDuration <= 0 {
		t.Skip("soak disabled; pass -torture.duration to enable")
	}
	failures := Soak(All(), *tortureSeed, *tortureDuration, t.Logf)
	if len(failures) == 0 {
		return
	}
	var lines []string
	for _, f := range failures {
		lines = append(lines, f.Repro())
		t.Errorf("%s/%s seed=%d: %v\nrepro: %s", f.Scenario.Category, f.Scenario.Name, f.Seed, f.Err, f.Repro())
	}
	if *tortureFailures != "" {
		body := strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(*tortureFailures, []byte(body), 0o644); err != nil {
			t.Errorf("writing failure file %s: %v", *tortureFailures, err)
		} else {
			t.Logf("wrote %d repro line(s) to %s", len(lines), *tortureFailures)
		}
	}
}

// TestReproLineMatchesSubtests pins the repro-line contract: the -run
// selector it prints must actually select the scenario's subtest.
func TestReproLineMatchesSubtests(t *testing.T) {
	seen := make(map[string]bool)
	for _, sc := range All() {
		if sc.Name == "" || sc.Brief == "" || sc.Run == nil {
			t.Fatalf("scenario %+v is incomplete", sc)
		}
		if strings.ContainsAny(sc.Name, " /") || strings.ContainsAny(sc.Category, " /") {
			t.Fatalf("scenario %s/%s: names must be -run-selector safe", sc.Category, sc.Name)
		}
		key := sc.Category + "/" + sc.Name
		if seen[key] {
			t.Fatalf("duplicate scenario %s", key)
		}
		seen[key] = true
		line := ReproLine(sc, 42)
		want := fmt.Sprintf("TestTorture/%s/%s$", sc.Category, sc.Name)
		if !strings.Contains(line, want) || !strings.Contains(line, "-torture.seed=42") {
			t.Fatalf("repro line %q does not target %q", line, want)
		}
	}
}

// TestSoakBudgetZeroRunsMatrixOnce pins the soak contract that round 0
// always completes: a zero budget still covers the matrix exactly once.
func TestSoakBudgetZeroRunsMatrixOnce(t *testing.T) {
	runs := 0
	probe := []Scenario{
		{Category: "eval", Name: "a", Brief: "x", Run: func(int64) error { runs++; return nil }},
		{Category: "eval", Name: "b", Brief: "x", Run: func(int64) error { runs++; return fmt.Errorf("boom") }},
	}
	failures := Soak(probe, 7, 0, nil)
	if runs != 2 {
		t.Fatalf("zero-budget soak ran %d scenarios, want 2", runs)
	}
	if len(failures) != 1 || failures[0].Seed != 7 || failures[0].Scenario.Name != "b" {
		t.Fatalf("failures = %+v, want one failure for b at seed 7", failures)
	}
	if got := failures[0].Repro(); !strings.Contains(got, "TestTorture/eval/b$") {
		t.Fatalf("failure repro %q does not name the scenario", got)
	}
}

// TestSoakRunsMultipleRounds pins that a positive budget replays the
// matrix at consecutive seeds until the budget is spent.
func TestSoakRunsMultipleRounds(t *testing.T) {
	var seeds []int64
	probe := []Scenario{{Category: "eval", Name: "a", Brief: "x", Run: func(seed int64) error {
		seeds = append(seeds, seed)
		time.Sleep(2 * time.Millisecond)
		return nil
	}}}
	Soak(probe, 100, 20*time.Millisecond, nil)
	if len(seeds) < 2 {
		t.Fatalf("soak ran only %d rounds within budget", len(seeds))
	}
	for i, s := range seeds {
		if s != 100+int64(i) {
			t.Fatalf("round %d ran seed %d, want %d", i, s, 100+int64(i))
		}
	}
}
