// Package lockorder implements the dyncq-lint pass guarding the
// engine's lock discipline. The engine has one lock,
// pkg/dyncq.Workspace.mu; the serving layer's broker lock ranks above
// it. Neither is re-entrant, so an exported workspace method called
// while the workspace mutex is held deadlocks on its own lock.
//
// The pass is an intra-function, syntactic analysis: it walks each
// function body in source order tracking which sync.Mutex/RWMutex
// receivers are locked, and flags, while any lock is held:
//
//   - re-acquiring a lock already held (self-deadlock);
//   - acquiring a second lock against the declared order, or a pair
//     with no declared order at all;
//   - operations that can block indefinitely: channel sends/receives,
//     select without default, WaitGroup.Wait, Cond.Wait, time.Sleep;
//   - calls to exported methods of the lock holder itself (public API
//     re-entry: the exported method takes the lock again);
//   - calls through function values (callbacks can re-enter anything).
//
// Function literals are not attributed to their enclosing function:
// they typically run on other goroutines or as
// callbacks after the lock is released, and the analysis has no way to
// know. Deferred unlocks keep the lock held to the end of the body.
package lockorder

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
	Name:     "lockorder",
	Doc:      "enforce the Workspace→broker lock order and flag blocking or re-entrant calls made under an engine lock",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// lockRank is the declared acquisition order, keyed by
// "<pkgpath>.<Type>.<field>". A lock may only be acquired while locks
// of strictly lower rank are held; unranked pairs have no declared
// order and nesting them is flagged.
var lockRank = map[string]int{
	"dyncq/pkg/dyncq.Workspace.mu": 0,
	// The subscription broker publishes with the workspace write lock
	// held (commit → delta capture → publish), so its mutex ranks
	// strictly above the engine lock and nothing blocking may run under
	// it — sends to subscriber outboxes must stay select-default.
	"dyncq/internal/server.broker.mu": 1,
}

// heldLock is one lock the current function has acquired and not yet
// released at the point of analysis.
type heldLock struct {
	expr   string // source text of the lock receiver, e.g. "w.mu"
	holder string // source text of the struct holding it, e.g. "w"
	id     string // qualified id for rank lookup, "" if not a named field
	rank   int    // declared rank, -1 if unranked
	pos    token.Pos
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := directive.NewIndex(pass.Fset, pass.Files)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		if strings.HasSuffix(pass.Fset.Position(fd.Pos()).Filename, "_test.go") {
			return
		}
		checkFunc(pass, allows, fd)
	})
	return nil, nil
}

func checkFunc(pass *analysis.Pass, allows *directive.Index, fd *ast.FuncDecl) {
	var held []heldLock

	heldNames := func() string {
		names := make([]string, len(held))
		for i, h := range held {
			names[i] = h.expr
		}
		return strings.Join(names, ", ")
	}

	reportBlocking := func(pos token.Pos, what string) {
		if len(held) == 0 {
			return
		}
		allows.Report(pass, pos, "%s while holding %s can block indefinitely with the lock held", what, heldNames())
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// defer x.Unlock() pins the lock to the end of the body —
			// exactly what the held-set already models. Other deferred
			// calls run after the body; don't analyze them in sequence.
			return false
		case *ast.GoStmt:
			// The spawned goroutine does not hold this function's locks.
			return false
		case *ast.SelectStmt:
			if !hasDefault(n) {
				reportBlocking(n.Pos(), "select without default")
			}
			// The comm clauses are part of the select already reported;
			// walk only the clause bodies.
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						ast.Inspect(s, walk)
					}
				}
			}
			return false
		case *ast.SendStmt:
			reportBlocking(n.Pos(), "channel send")
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reportBlocking(n.Pos(), "channel receive")
			}
			return true
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					reportBlocking(n.Pos(), "range over channel")
				}
			}
			return true
		case *ast.CallExpr:
			held = handleCall(pass, allows, fd, held, n, heldNames)
			return true
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

func handleCall(pass *analysis.Pass, allows *directive.Index, fd *ast.FuncDecl, held []heldLock, call *ast.CallExpr, heldNames func() string) []heldLock {
	if lk, kind, ok := mutexOp(pass, call); ok {
		switch kind {
		case opLock:
			for _, h := range held {
				switch {
				case h.expr == lk.expr:
					allows.Report(pass, call.Pos(),
						"re-acquiring %s already held since this function locked it: the engine locks are not re-entrant", lk.expr)
				case h.rank >= 0 && lk.rank >= 0 && lk.rank <= h.rank:
					allows.Report(pass, call.Pos(),
						"acquiring %s while holding %s violates the declared lock order (Workspace.mu before broker.mu)", lk.expr, h.expr)
				case h.rank < 0 || lk.rank < 0:
					allows.Report(pass, call.Pos(),
						"acquiring %s while holding %s: this lock pair has no declared acquisition order", lk.expr, h.expr)
				}
			}
			return append(held, lk)
		case opUnlock:
			for i, h := range held {
				if h.expr == lk.expr {
					return append(held[:i:i], held[i+1:]...)
				}
			}
			return held
		}
	}

	if len(held) == 0 {
		return held
	}

	// Blocking calls: WaitGroup.Wait, Cond.Wait, time.Sleep.
	if what, ok := blockingCall(pass, call); ok {
		allows.Report(pass, call.Pos(), "%s while holding %s can block indefinitely with the lock held", what, heldNames())
		return held
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, isFunc := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if isFunc {
			if sig := fn.Type().(*types.Signature); sig.Recv() != nil && ast.IsExported(fn.Name()) {
				recv := types.ExprString(fun.X)
				for _, h := range held {
					if h.holder == recv {
						allows.Report(pass, call.Pos(),
							"call to exported method %s.%s while holding its lock %s can re-enter the public API and deadlock", recv, fn.Name(), h.expr)
						break
					}
				}
			}
			return held
		}
		// Selector resolving to a func-typed field or variable.
		if isFuncValue(pass.TypesInfo.Uses[fun.Sel]) {
			allows.Report(pass, call.Pos(),
				"call through function value %s while holding %s: callbacks can re-enter the locked API", types.ExprString(call.Fun), heldNames())
		}
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[fun]
		if isFuncValue(obj) {
			allows.Report(pass, call.Pos(),
				"call through function value %s while holding %s: callbacks can re-enter the locked API", fun.Name, heldNames())
		}
	}
	return held
}

// isFuncValue reports whether obj is a variable (parameter, local,
// field) of function type — a dynamic call target.
func isFuncValue(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	_, isSig := v.Type().Underlying().(*types.Signature)
	return isSig
}

type mutexOpKind int

const (
	opLock mutexOpKind = iota
	opUnlock
)

// mutexOp decodes x.Lock()/RLock()/TryLock() and Unlock()/RUnlock()
// calls on sync.Mutex/sync.RWMutex receivers.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (heldLock, mutexOpKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return heldLock{}, 0, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return heldLock{}, 0, false
	}
	var kind mutexOpKind
	switch fn.Name() {
	case "Lock", "RLock":
		kind = opLock
	case "TryLock", "TryRLock":
		// A successful TryLock holds the lock; treat like Lock for
		// ordering (failed attempts make the analysis conservative).
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return heldLock{}, 0, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isMutexType(recv.Type()) {
		return heldLock{}, 0, false
	}
	lk := heldLock{expr: types.ExprString(sel.X), pos: call.Pos(), rank: -1}
	lk.holder = lk.expr
	if fieldSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if s, ok := pass.TypesInfo.Selections[fieldSel]; ok && s.Kind() == types.FieldVal {
			lk.holder = types.ExprString(fieldSel.X)
			if id := qualifiedField(s.Recv(), fieldSel.Sel.Name); id != "" {
				lk.id = id
				if r, ok := lockRank[id]; ok {
					lk.rank = r
				}
			}
		}
	}
	return lk, kind, true
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// qualifiedField builds the "<pkgpath>.<Type>.<field>" id used by the
// rank table from the holder's type.
func qualifiedField(holder types.Type, field string) string {
	if p, ok := holder.(*types.Pointer); ok {
		holder = p.Elem()
	}
	named, ok := holder.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field
}

// blockingCall decodes sync.WaitGroup.Wait, sync.Cond.Wait, and
// time.Sleep calls.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "sync":
		if fn.Name() == "Wait" {
			return types.ExprString(call.Fun), true
		}
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	}
	return "", false
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
