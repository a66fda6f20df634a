package omv

import (
	"math"
	"math/rand"
	"testing"

	"dyncq/internal/cq"
)

// ovDim returns the dimension at which n×n random vectors of density 1/2
// hold about ln 2 orthogonal pairs in expectation — each pair is
// orthogonal with probability (3/4)^d — so about half the instances have
// one and half do not.
func ovDim(n int) int {
	return int(math.Ceil(math.Log(float64(n*n)/math.Ln2) / math.Log(4.0/3)))
}

// TestSolveOVViaCounting: the Theorem 3.5 counting reduction, run on the
// IVM strategy, answers every random OV instance as the naive solver
// does, on instances of both answers; it refuses a query with a self-join
// and a q-hierarchical query, which has no condition-(ii) violation to
// encode the vectors through.
func TestSolveOVViaCounting(t *testing.T) {
	for _, text := range []string{
		"Q(x) :- E(x,y), T(y)",       // ϕE-T, Lemma 5.5's example
		"Q(x) :- S(x), E(x,y), T(y)", // an atom on x alone rides along
	} {
		t.Run(text, func(t *testing.T) {
			q := cq.MustParse(text)
			rng := rand.New(rand.NewSource(17))
			seen := map[bool]int{}
			for trial := 0; trial < 60; trial++ {
				n := 3 + rng.Intn(8)
				inst := RandomOVInstance(rng, n, ovDim(n), 0.5)
				got, err := SolveOVViaCounting(q, inst, ivmFactory)
				if err != nil {
					t.Fatal(err)
				}
				if want := NaiveOV(inst); got != want {
					t.Fatalf("trial %d (n=%d): reduction %v, naive %v", trial, n, got, want)
				}
				seen[got]++
			}
			t.Logf("%d instances with an orthogonal pair, %d without", seen[true], seen[false])
			if seen[true] == 0 || seen[false] == 0 {
				t.Fatalf("instances were one-sided (%d with an orthogonal pair, %d without): the test checks one answer only", seen[true], seen[false])
			}
		})
	}
	for _, text := range []string{
		"Q(x) :- E(x,y), E(y,z)", // self-join with a condition-(ii) violation
		"Q(y) :- E(x,y), T(y)",   // q-hierarchical
	} {
		if _, err := NewCountReduction(cq.MustParse(text), 4, 3, ivmFactory); err == nil {
			t.Errorf("%s: NewCountReduction accepted it", text)
		}
	}
}
