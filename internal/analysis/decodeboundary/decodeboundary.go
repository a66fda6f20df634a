// Package decodeboundary implements the dyncq-lint pass that keeps
// interned values interned through the engine. Tuples travel as
// dict-interned uint64 handles from ingestion to enumeration; the only
// place a handle may be turned back into its string is the documented
// display boundary (cmd/, bench display, formatTuple) and the
// enumeration surface itself (the Enumerate/Tuples methods that hand
// results to callers). A Decode call anywhere inside the core, eval,
// ivm, or dyndb hot paths would silently reintroduce per-tuple string
// materialisation and destroy the constant-delay budget.
package decodeboundary

import (
	"go/ast"
	"go/types"
	"strings"

	"dyncq/internal/analysis/directive"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

var Analyzer = &analysis.Analyzer{
	Name:     "decodeboundary",
	Doc:      "forbid dict decode calls inside engine hot paths; decoding belongs to the enumeration/display boundary",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// scopedPackages are the interior packages where a decode call is a
// boundary violation. cmd/, internal/bench, and pkg/dyncq (the session
// surface handing results to callers) are the boundary and stay free.
var scopedPackages = map[string]bool{
	"dyncq/internal/core":  true,
	"dyncq/internal/eval":  true,
	"dyncq/internal/ivm":   true,
	"dyncq/internal/dyndb": true,
}

// boundaryFuncs are the function names that form the documented
// enumeration boundary even inside scoped packages: they exist to hand
// decoded tuples to the caller, once per delivered result.
var boundaryFuncs = map[string]bool{
	"Enumerate": true,
	"Tuples":    true,
}

func run(pass *analysis.Pass) (any, error) {
	if !scopedPackages[pass.Pkg.Path()] {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := directive.NewIndex(pass.Fset, pass.Files)

	// Walk with a stack so each call knows its enclosing declaration;
	// function literals belong to the top-level function declaring them
	// (a decode inside a closure built by Enumerate is still boundary).
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		if strings.HasSuffix(pass.Fset.Position(call.Pos()).Filename, "_test.go") {
			return true
		}
		name, ok := decodeCall(pass, call)
		if !ok {
			return true
		}
		if fd := enclosingFuncDecl(stack); fd != nil && boundaryFuncs[fd.Name.Name] {
			return true
		}
		allows.Report(pass, call.Pos(),
			"%s inside %s: interned handles must stay interned until the enumeration/display boundary (cmd/, bench display, Enumerate/Tuples)",
			name, pass.Pkg.Path())
		return true
	})
	return nil, nil
}

// decodeCall reports whether the call decodes an interned handle:
// dict.(*Dict).Decode / TryDecode / DecodeAll. (Tuples themselves are
// never encoded: every tuple-keyed structure is a tuplekey.Table of int64
// tuples, so there is no tuple codec to guard.)
func decodeCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if strings.HasSuffix(fn.Pkg().Path(), "internal/dict") {
		switch fn.Name() {
		case "Decode", "TryDecode", "DecodeAll":
			return "dict." + fn.Name(), true
		}
	}
	return "", false
}

func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}
