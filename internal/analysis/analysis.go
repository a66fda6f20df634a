// Package analysis registers the dyncq-lint analyzer suite: the custom
// go/analysis passes enforcing the engine invariants that runtime
// tests can only probe — lock discipline, seed determinism, and the
// hot-path allocation budget.
// cmd/dyncq-lint ships them as a vet tool; the fixtures under each
// analyzer's testdata directory are the executable specification of
// what each pass flags and what it deliberately leaves alone.
package analysis

import (
	"dyncq/internal/analysis/determinism"
	"dyncq/internal/analysis/hotalloc"
	"dyncq/internal/analysis/lockorder"

	goanalysis "golang.org/x/tools/go/analysis"
)

// Analyzers returns the full dyncq-lint suite in reporting order.
func Analyzers() []*goanalysis.Analyzer {
	return []*goanalysis.Analyzer{
		lockorder.Analyzer,
		determinism.Analyzer,
		hotalloc.Analyzer,
	}
}

// Names returns the set of analyzer names a //dyncq:allow comment may
// reference; the allow meta-test rejects unknown names.
func Names() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}
