// Package hotalloc implements the dyncq-lint pass guarding the
// engine's ≈0.5 allocs/op core update budget. Functions on the
// Commit → fan-out → item-arena path carry a //dyncq:hot annotation;
// inside them the pass flags the allocation patterns that silently
// destroy a constant-delay budget: fmt calls, string concatenation,
// string↔[]byte conversions, maps and New* constructors built per call,
// appends to slices without a pre-sized backing array, and implicit
// interface boxing. Expressions
// inside a panic(...) argument are exempt — a panic is the cold path
// by definition, and the engine's hot functions format their
// invariant-violation messages there.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dyncq/internal/analysis/directive"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

var Analyzer = &analysis.Analyzer{
	Name:     "hotalloc",
	Doc:      "flag allocation patterns (fmt, string concat, unsized append, make(map), New* constructors, interface boxing) in //dyncq:hot functions",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := directive.NewIndex(pass.Fset, pass.Files)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || !directive.IsHot(fd.Doc) {
			return
		}
		checkHotFunc(pass, allows, fd)
	})
	return nil, nil
}

func checkHotFunc(pass *analysis.Pass, allows *directive.Index, fd *ast.FuncDecl) {
	sized := sizedSlices(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanic(pass, n) {
				return false // cold path: don't descend into the argument
			}
			checkCall(pass, allows, sized, fd, n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass, n) {
				allows.Report(pass, n.OpPos,
					"string concatenation in hot function %s allocates; build into a reused buffer", fd.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass, n.Lhs[0]) {
				allows.Report(pass, n.TokPos,
					"string += in hot function %s allocates; build into a reused buffer", fd.Name.Name)
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, allows *directive.Index, sized map[types.Object]bool, fd *ast.FuncDecl, call *ast.CallExpr) {
	// Type conversions between string and byte/rune slices copy.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, pass.TypesInfo.TypeOf(call.Args[0])
		if from != nil && stringBytesConversion(to, from) {
			allows.Report(pass, call.Pos(),
				"%s conversion in hot function %s copies its operand", types.TypeString(to, types.RelativeTo(pass.Pkg)), fd.Name.Name)
		}
		return
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if isBuiltin(pass, fun) {
			switch fun.Name {
			case "make":
				mt := pass.TypesInfo.TypeOf(call.Args[0])
				if mt == nil {
					return
				}
				if _, isMap := mt.Underlying().(*types.Map); !isMap {
					return
				}
				if len(call.Args) == 1 {
					allows.Report(pass, call.Pos(),
						"unsized make(map) in hot function %s grows by rehashing; pass a size hint", fd.Name.Name)
				} else {
					allows.Report(pass, call.Pos(),
						"make(map) in hot function %s allocates on every call; keep the map across calls and clear it", fd.Name.Name)
				}
			case "append":
				if len(call.Args) > 0 && !sizedDest(pass, sized, call.Args[0]) {
					allows.Report(pass, call.Pos(),
						"append to unsized destination in hot function %s can grow the backing array; pre-size it or reslice with [:0]", fd.Name.Name)
				}
			}
			return
		}
		reportConstructor(pass, allows, fd, call, fun)
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			allows.Report(pass, call.Pos(),
				"fmt.%s in hot function %s allocates (formatting + interface boxing)", fn.Name(), fd.Name.Name)
			return
		}
		reportConstructor(pass, allows, fd, call, fun.Sel)
	case *ast.IndexExpr: // explicit instantiation: pkg.NewT[V](…)
		switch x := ast.Unparen(fun.X).(type) {
		case *ast.Ident:
			reportConstructor(pass, allows, fd, call, x)
		case *ast.SelectorExpr:
			reportConstructor(pass, allows, fd, call, x.Sel)
		}
	}

	// Implicit interface boxing: a concrete-typed argument passed where
	// the parameter is an interface escapes to the heap.
	sig, ok := calleeSignature(pass, call)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			break // xs... passes the slice itself, no boxing
		}
		pt := paramType(sig, i)
		if pt == nil {
			break
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || at == types.Typ[types.UntypedNil] {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue
		}
		allows.Report(pass, arg.Pos(),
			"argument boxes %s into interface %s in hot function %s",
			types.TypeString(at, types.RelativeTo(pass.Pkg)),
			types.TypeString(pt, types.RelativeTo(pass.Pkg)), fd.Name.Name)
	}
}

// reportConstructor flags a call to a function or method named New…: by
// the repository's naming convention it builds a fresh value, which a
// function on the per-tuple path must hold across calls instead.
func reportConstructor(pass *analysis.Pass, allows *directive.Index, fd *ast.FuncDecl, call *ast.CallExpr, name *ast.Ident) {
	fn, ok := pass.TypesInfo.Uses[name].(*types.Func)
	if !ok || !strings.HasPrefix(fn.Name(), "New") {
		return
	}
	allows.Report(pass, call.Pos(),
		"constructor %s in hot function %s allocates on every call; build the value once and reuse it", fn.Name(), fd.Name.Name)
}

// sizedSlices collects local slice variables whose defining assignment
// provably reuses or pre-sizes a backing array: make with explicit
// length/capacity, a reslice (x[:0] keeps x's array), or a full slice
// expression. Appending to them is amortised-allocation-free.
func sizedSlices(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	sized := make(map[types.Object]bool)
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if presizedExpr(pass, rhs) {
				sized[obj] = true
			}
		}
		return true
	})
	return sized
}

// presizedExpr reports whether the expression denotes a slice with a
// deliberately chosen backing array.
func presizedExpr(pass *analysis.Pass, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return true // x[:0], x[a:b], x[a:b:c] all reuse x's array
	case *ast.CallExpr:
		fun, ok := ast.Unparen(x.Fun).(*ast.Ident)
		if !ok || fun.Name != "make" || !isBuiltin(pass, fun) || len(x.Args) == 0 {
			return false
		}
		mt := pass.TypesInfo.TypeOf(x.Args[0])
		if mt == nil {
			return false
		}
		if _, isSlice := mt.Underlying().(*types.Slice); !isSlice {
			return false
		}
		return len(x.Args) >= 2 // make([]T, n) or make([]T, n, c)
	}
	return false
}

// sizedDest reports whether the append destination is a pre-sized
// local (or itself a reslice expression like buf[:0]).
func sizedDest(pass *analysis.Pass, sized map[types.Object]bool, dst ast.Expr) bool {
	switch x := ast.Unparen(dst).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = pass.TypesInfo.Defs[x]
		}
		return obj != nil && sized[obj]
	}
	return false
}

func stringBytesConversion(to, from types.Type) bool {
	return (isStringType(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	return t != nil && isStringType(t)
}

func isPanic(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic" && isBuiltin(pass, id)
}

func isBuiltin(pass *analysis.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// calleeSignature resolves the static signature of a call's callee for
// the boxing check; dynamic calls and builtins are skipped.
func calleeSignature(pass *analysis.Pass, call *ast.CallExpr) (*types.Signature, bool) {
	t := pass.TypesInfo.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.(*types.Signature)
	return sig, ok
}

// paramType returns the type of parameter i, expanding the variadic
// tail; nil when i is out of range (shouldn't happen on typed code).
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params == nil {
		return nil
	}
	n := params.Len()
	if sig.Variadic() {
		if i >= n-1 {
			last := params.At(n - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				return s.Elem()
			}
			return last
		}
		return params.At(i).Type()
	}
	if i >= n {
		return nil
	}
	return params.At(i).Type()
}
