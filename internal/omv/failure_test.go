package omv

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
)

var errInjected = errors.New("injected evaluator failure")

// failAt builds IVM evaluators whose k-th Apply, counted across every
// evaluator it built, fails with errInjected.
type failAt struct{ k, calls int }

func (f *failAt) factory(q *cq.Query) (DynamicEvaluator, error) {
	ev, err := ivmFactory(q)
	return failingEvaluator{DynamicEvaluator: ev, f: f}, err
}

type failingEvaluator struct {
	DynamicEvaluator
	f *failAt
}

func (e failingEvaluator) Apply(u dyndb.Update) (bool, error) {
	if e.f.calls++; e.f.calls == e.f.k {
		return false, errInjected
	}
	return e.DynamicEvaluator.Apply(u)
}

// TestReductionsReturnEvaluatorErrors fails each reduction pipeline's
// k-th evaluator update for every k up to the number a clean run makes:
// the error must reach the caller, whichever phase (static atoms, the
// matrix or vector set, a round's vector switch) the update belongs to.
// The queries carry static atoms on x alone, on y alone and on neither,
// beside the witness atoms, so every kind of static update is made.
func TestReductionsReturnEvaluatorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 3
	m, us, vs := RandomOuMvInstance(rng, n, 0.5)
	ov := RandomOVInstance(rng, n, 2, 0.5)
	ov.V = append(ov.V, NewVector(2)) // orthogonal to everything: the last round answers yes
	et := cq.MustParse("Q(x) :- E(x,y), T(y), S(x), U(w)")
	pipelines := []struct {
		name string
		run  func(EvaluatorFactory) error
	}{
		{"answering", func(f EvaluatorFactory) error {
			q := cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y), U(x,z), V(y), W(w), R(x,y,w)")
			got, err := SolveOuMvViaAnswering(q, m, us, vs, f)
			if err == nil && !slices.Equal(got, NaiveOuMv(m, us, vs)) {
				t.Errorf("answering: %v, naive %v", got, NaiveOuMv(m, us, vs))
			}
			return err
		}},
		{"enumeration", func(f EvaluatorFactory) error {
			got, err := SolveOMvViaEnumeration(et, m, vs, f)
			for i, want := range NaiveOMv(m, vs) {
				if err == nil && !got[i].Equal(want) {
					t.Errorf("enumeration round %d: %s, naive %s", i, got[i], want)
				}
			}
			return err
		}},
		{"counting", func(f EvaluatorFactory) error {
			got, err := SolveOVViaCounting(et, ov, f)
			if err == nil && !got {
				t.Errorf("counting missed the orthogonal pair")
			}
			return err
		}},
	}
	for _, p := range pipelines {
		k := 1
		for ; ; k++ {
			f := &failAt{k: k}
			err := p.run(f.factory)
			if f.calls < k { // a clean run: the k-th update never came
				if err != nil {
					t.Fatalf("%s: clean run failed: %v", p.name, err)
				}
				break
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("%s: update %d failed, the caller got %v", p.name, k, err)
			}
		}
		t.Logf("%s: each of %d updates failed in turn", p.name, k-1)
	}
}

// TestReductionsRejectBadInputs covers the calls each reduction refuses
// before it touches the evaluator: inputs of the wrong dimension, a
// query its gadget does not fit, and a factory that fails.
func TestReductionsRejectBadInputs(t *testing.T) {
	set := cq.MustParse("Q(x,y) :- S(x), E(x,y), T(y)")
	et := cq.MustParse("Q(x) :- E(x,y), T(y)")
	wantErr := func(what string, err error, substr string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), substr) {
			t.Errorf("%s: error %v, want one containing %q", what, err, substr)
		}
	}

	ar, err := NewAnswerReduction(set, 3, ivmFactory)
	if err != nil {
		t.Fatal(err)
	}
	wantErr("AnswerReduction.SetMatrix", ar.SetMatrix(NewMatrix(4)), "matrix dim 4, reduction built for 3")
	er, err := NewEnumerateReduction(et, 3, ivmFactory)
	if err != nil {
		t.Fatal(err)
	}
	wantErr("EnumerateReduction.SetMatrix", er.SetMatrix(NewMatrix(4)), "matrix dim 4, reduction built for 3")
	cr, err := NewCountReduction(et, 2, 3, ivmFactory)
	if err != nil {
		t.Fatal(err)
	}
	// The witnesses both reductions found draw x from the head.
	if er.xPos < 0 || er.q.Head[er.xPos] != er.wit.X || !slices.Contains(cr.q.Head, cr.wit.X) {
		t.Fatalf("witness x %s at head position %d, %s for counting, in head %v", er.wit.X, er.xPos, cr.wit.X, et.Head)
	}
	wantErr("SetVectors with one vector", cr.SetVectors([]Vector{NewVector(3)}), "1 vectors, reduction built for 2")
	wantErr("SetVectors with a short vector", cr.SetVectors([]Vector{NewVector(3), NewVector(2)}), "vector 1 has dimension 2, want 3")

	_, err = SolveOuMvViaAnswering(set, NewMatrix(2), []Vector{NewVector(2)}, nil, ivmFactory)
	wantErr("SolveOuMvViaAnswering with |us| ≠ |vs|", err, "|us| = 1, |vs| = 0")
	_, err = SolveOuMvViaAnswering(et, NewMatrix(2), nil, nil, ivmFactory)
	wantErr("SolveOuMvViaAnswering on a hierarchical core", err, "is hierarchical")
	_, err = SolveOMvViaEnumeration(cq.MustParse("Q(y) :- E(x,y), T(y)"), NewMatrix(2), nil, ivmFactory)
	wantErr("SolveOMvViaEnumeration without a condition-(ii) violation", err, "no condition-(ii) violation")
	_, err = NewEnumerateReduction(cq.MustParse("Q(x) :- E(x,y), E(y,y)"), 2, ivmFactory)
	wantErr("EnumerateReduction with a self-join", err, "not self-join free")
	inst := OVInstance{U: []Vector{NewVector(1)}, V: []Vector{NewVector(1)}}
	_, err = SolveOVViaCounting(cq.MustParse("Q(x) :- E(x,y), E(y,y)"), inst, ivmFactory)
	wantErr("SolveOVViaCounting with a self-join", err, "not self-join free")
	_, err = NewCountReduction(cq.MustParse("Q(y) :- E(x,y), T(y)"), 1, 1, ivmFactory)
	wantErr("CountReduction without a condition-(ii) violation", err, "no condition-(ii) violation")
	if found, err := SolveOVViaCounting(et, OVInstance{}, ivmFactory); found || err != nil {
		t.Errorf("SolveOVViaCounting on an empty instance: %v, %v", found, err)
	}

	broken := func(*cq.Query) (DynamicEvaluator, error) { return nil, errInjected }
	for what, err := range map[string]error{
		"NewAnswerReduction":    second(NewAnswerReduction(set, 2, broken)),
		"NewEnumerateReduction": second(NewEnumerateReduction(et, 2, broken)),
		"NewCountReduction":     second(NewCountReduction(et, 2, 2, broken)),
	} {
		if !errors.Is(err, errInjected) {
			t.Errorf("%s with a failing factory: error %v", what, err)
		}
	}
}

func second[T any](_ T, err error) error { return err }
