// Package epochstep implements the dyncq-lint pass that keeps the
// store and its companion index structures in epoch lockstep. The
// eval.IndexSet detects missed updates by comparing the epoch it is
// synchronised to against dyndb.Database.Epoch(), so every state
// transition of the store must advance the epoch — and engine code
// holding the shared store must mutate it only through the batch entry
// points the workspace pairs with index maintenance.
//
// The pass has two halves:
//
//   - Inside internal/dyndb, any function that mutates relation or
//     adom state (writes to the rels/adom/adomSize/card fields, their
//     local aliases, or Put/Ref/Delete on a relation shard table) must
//     also advance d.epoch in the same function body.
//
//   - In the packages that see the shared store (pkg/dyncq, which owns
//     it, and the engine packages internal/core, internal/eval and
//     internal/ivm, which only read it), calls to the per-tuple mutators
//     Insert, Delete, Apply, and ApplyAll on a *dyndb.Database are
//     flagged; batches go through ApplyNetDelta, lifecycle through
//     Clear/CopyFrom, which the workspace pairs with index maintenance.
package epochstep

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
	Name:     "epochstep",
	Doc:      "every dyndb store mutation must advance the epoch (inside dyndb) and go through the blessed batch entry points (outside)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// storeFields are the Database fields holding relation/adom state.
// epoch and muts are the counters themselves, not content.
var storeFields = map[string]bool{
	"rels":     true,
	"adom":     true,
	"adomSize": true,
	"card":     true,
}

// mutatorMethods are the per-tuple Database mutators that engine code
// sharing the store with an IndexSet must not call directly.
var mutatorMethods = map[string]bool{
	"Insert":   true,
	"Delete":   true,
	"Apply":    true,
	"ApplyAll": true,
}

// sharedStorePackages are the packages that see the workspace's shared
// store: the workspace, which must keep store and indexes in lockstep,
// and the engine packages, which only ever read it — a store write from
// an engine is a second owner. Oracles, benches, and cmd/ build private
// databases and stay out of scope.
var sharedStorePackages = map[string]bool{
	"dyncq/pkg/dyncq":     true,
	"dyncq/internal/core": true,
	"dyncq/internal/eval": true,
	"dyncq/internal/ivm":  true,
}

func run(pass *analysis.Pass) (any, error) {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/dyndb") {
		runInsideDyndb(pass)
		return nil, nil
	}
	if sharedStorePackages[pass.Pkg.Path()] {
		runSharedStore(pass)
	}
	return nil, nil
}

// ---------------------------------------------------------------- outside

func runSharedStore(pass *analysis.Pass) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := directive.NewIndex(pass.Fset, pass.Files)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if strings.HasSuffix(pass.Fset.Position(call.Pos()).Filename, "_test.go") {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || !mutatorMethods[fn.Name()] {
			return
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !isDatabase(sig.Recv().Type()) {
			return
		}
		allows.Report(pass, call.Pos(),
			"direct store mutation %s.%s in %s: shared-store code must use ApplyNetDelta/Clear/CopyFrom so indexes stay in epoch lockstep",
			types.TypeString(sig.Recv().Type(), types.RelativeTo(pass.Pkg)), fn.Name(), pass.Pkg.Path())
	})
}

// isDatabase reports whether t is dyndb.Database or a pointer to it.
func isDatabase(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Database" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/dyndb")
}

// ----------------------------------------------------------------- inside

func runInsideDyndb(pass *analysis.Pass) {
	allows := directive.NewIndex(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDyndbFunc(pass, allows, fd)
		}
	}
}

// checkDyndbFunc flags store-state writes in a dyndb function whose
// body (nested literals included — parallel appliers mutate shards
// from worker closures) never advances the epoch.
func checkDyndbFunc(pass *analysis.Pass, allows *directive.Index, fd *ast.FuncDecl) {
	aliases := storeAliases(pass, fd)
	var writes []ast.Node
	advancesEpoch := false

	recordLHS := func(lhs ast.Expr) {
		root, field := fieldRoot(pass, lhs, aliases)
		if !root {
			return
		}
		if field == "epoch" {
			advancesEpoch = true
			return
		}
		if storeFields[field] || field == aliasField {
			writes = append(writes, lhs)
		}
	}

	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				recordLHS(lhs)
			}
		case *ast.IncDecStmt:
			recordLHS(n.X)
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "delete" && len(n.Args) == 2 {
					recordLHS(n.Args[0])
				}
			case *ast.SelectorExpr:
				// Put/Ref/Delete on a relation shard table mutates stored
				// tuples no matter how the table reference was obtained
				// (Ref inserts the key it does not find).
				if shardMutators[fun.Sel.Name] && isShardTable(pass, fun.X) {
					writes = append(writes, n)
				}
			}
		}
		return true
	})

	if advancesEpoch || len(writes) == 0 {
		return
	}
	for _, w := range writes {
		allows.Report(pass, w.Pos(),
			"%s mutates store state but never advances d.epoch: companion indexes cannot detect the change",
			fd.Name.Name)
	}
}

// aliasField is the pseudo-field name recorded for writes through a
// local alias of store state (a := d.adom[i]; a[v]++).
const aliasField = "(alias)"

// storeAliases collects the local identifiers a function binds to store
// state (assignments whose RHS is rooted at a Database store field), so
// writes through the alias count as store writes.
func storeAliases(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	aliases := make(map[types.Object]bool)
	for changed := true; changed; { // fixed point: aliases of aliases
		changed = false
		ast.Inspect(fd, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if root, _ := fieldRootWith(pass, rhs, aliases, true); !root {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil && !aliases[obj] {
					aliases[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return aliases
}

// fieldRoot unwraps selector/index chains and reports whether the
// expression is rooted at a Database store field (or a local alias of
// one), returning the field name ((alias) for alias roots).
func fieldRoot(pass *analysis.Pass, e ast.Expr, aliases map[types.Object]bool) (bool, string) {
	return fieldRootWith(pass, e, aliases, false)
}

func fieldRootWith(pass *analysis.Pass, e ast.Expr, aliases map[types.Object]bool, storeOnly bool) (bool, string) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if fn, ok := pass.TypesInfo.Selections[x]; ok && fn.Kind() == types.FieldVal && isDatabase(fn.Recv()) {
				name := x.Sel.Name
				if storeOnly && !storeFields[name] {
					return false, ""
				}
				return true, name
			}
			e = x.X
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[x]; obj != nil && aliases[obj] {
				return true, aliasField
			}
			return false, ""
		default:
			return false, ""
		}
	}
}

// shardMutators are the tuplekey.Table methods that change a shard's
// tuple set.
var shardMutators = map[string]bool{"Put": true, "Ref": true, "Delete": true}

// isShardTable reports whether the expression is a
// *tuplekey.Table[struct{}] — the concrete type of every relation shard.
func isShardTable(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Table" || named.Obj().Pkg() == nil ||
		!strings.HasSuffix(named.Obj().Pkg().Path(), "internal/tuplekey") {
		return false
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return false
	}
	st, ok := args.At(0).Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}
