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
package torture

import (
	"fmt"
	"hash/fnv"
	"math/rand"
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
	// Brief is the one-line description printed by listings.
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
