package torture

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

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

// TestSoakBudgetZeroRunsMatrixOnce pins the soak contract PR lanes and
// the CLI rely on: a zero budget still covers the matrix exactly once.
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
