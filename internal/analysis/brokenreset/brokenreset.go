// Package brokenreset enforces the broken-barrier protocol at call sites:
// the error results of WaitContext and WaitSiteContext must not be
// discarded, and a branch that identifies thrifty.ErrBroken must
// either Reset() the barrier or stop using it.
//
// Once a generation breaks, every Wait variant fails fast with ErrBroken
// until Reset re-arms the barrier. Discarding the error — or logging it
// and looping back to Wait — therefore turns one cancellation into a
// permanent, silent livelock: each iteration returns ErrBroken
// immediately and no rendezvous ever completes again. The analyzer flags:
//
//  1. call statements (including go/defer) whose error result is
//     discarded, and assignments of it to blank;
//  2. if/switch branches selecting ErrBroken (via errors.Is or ==) whose
//     body neither calls Reset nor leaves the barrier's use (return,
//     break, goto, panic, os.Exit, log.Fatal*, testing.Fatal*).
package brokenreset

import (
	"go/ast"
	"go/token"
	"go/types"

	"thriftybarrier/internal/analysis"
)

// Analyzer is the brokenreset analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "brokenreset",
	Doc: "flags discarded WaitContext/WaitSiteContext errors and ErrBroken " +
		"branches that neither Reset the barrier nor stop using it",
	Run: run,
}

// errMethods are thrifty.Barrier's error-returning rendezvous methods.
var errMethods = map[string]bool{"WaitContext": true, "WaitSiteContext": true}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// errCall reports whether call is one of the guarded methods, with
	// its display name.
	errCall := func(call *ast.CallExpr) (string, bool) {
		recv, method, ok := analysis.ReceiverOf(info, call)
		if !ok {
			return "", false
		}
		if !errMethods[method] || !analysis.IsNamed(recv, analysis.ThriftyPkg, "Barrier") {
			return "", false
		}
		return "(*thrifty.Barrier)." + method, true
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, ok := errCall(call); ok {
						pass.Reportf(call.Pos(), "result of %s is discarded: a broken or cancelled rendezvous goes unnoticed (check the error; ErrBroken requires Reset)", name)
					}
				}
			case *ast.GoStmt:
				if name, ok := errCall(n.Call); ok {
					pass.Reportf(n.Call.Pos(), "result of %s is discarded by go statement: a broken or cancelled rendezvous goes unnoticed", name)
				}
			case *ast.DeferStmt:
				if name, ok := errCall(n.Call); ok {
					pass.Reportf(n.Call.Pos(), "result of %s is discarded by defer statement: a broken or cancelled rendezvous goes unnoticed", name)
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || len(n.Lhs) != len(n.Rhs) {
						continue
					}
					name, guarded := errCall(call)
					if !guarded {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						pass.Reportf(call.Pos(), "result of %s is assigned to blank: a broken or cancelled rendezvous goes unnoticed", name)
					}
				}
			case *ast.IfStmt:
				if isErrBrokenTest(info, n.Cond) && !handlesBroken(info, n.Body.List) {
					pass.Reportf(n.Cond.Pos(), "ErrBroken branch neither calls Reset nor stops using the barrier: every later Wait fails fast with ErrBroken (call Reset, or return/propagate the error)")
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if isErrBrokenTest(info, e) && !handlesBroken(info, n.Body) {
						pass.Reportf(e.Pos(), "ErrBroken case neither calls Reset nor stops using the barrier: every later Wait fails fast with ErrBroken (call Reset, or return/propagate the error)")
					}
				}
			}
			return true
		})
	}
	return nil
}

// isErrBrokenTest recognizes `errors.Is(err, thrifty.ErrBroken)` and
// `err == thrifty.ErrBroken` (either operand order).
func isErrBrokenTest(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if analysis.IsPkgFunc(info, e, "errors", "Is") && len(e.Args) == 2 {
			return isErrBroken(info, e.Args[1])
		}
	case *ast.BinaryExpr:
		if e.Op == token.EQL {
			return isErrBroken(info, e.X) || isErrBroken(info, e.Y)
		}
	case *ast.ParenExpr:
		return isErrBrokenTest(info, e.X)
	}
	return false
}

func isErrBroken(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == analysis.ThriftyPkg && obj.Name() == "ErrBroken"
}

// handlesBroken reports whether the branch body resolves a broken
// barrier: a Reset call, or any statement that abandons the barrier's
// use.
func handlesBroken(info *types.Info, body []ast.Stmt) bool {
	handled := false
	for _, s := range body {
		ast.Inspect(s, func(n ast.Node) bool {
			if handled {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // separate control flow
			case *ast.ReturnStmt:
				handled = true
			case *ast.BranchStmt:
				if n.Tok == token.BREAK || n.Tok == token.GOTO {
					handled = true
				}
			case *ast.CallExpr:
				if analysis.IsMethodCall(info, n, analysis.ThriftyPkg, "Barrier", "Reset") {
					handled = true
					break
				}
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
					handled = true
					break
				}
				if analysis.IsPkgFunc(info, n, "os", "Exit") ||
					analysis.IsPkgFunc(info, n, "log", "Fatal") ||
					analysis.IsPkgFunc(info, n, "log", "Fatalf") ||
					analysis.IsPkgFunc(info, n, "log", "Fatalln") {
					handled = true
					break
				}
				if recv, method, ok := analysis.ReceiverOf(info, n); ok &&
					(method == "Fatal" || method == "Fatalf" || method == "FailNow") &&
					analysis.IsNamed(recv, "testing", "T") {
					handled = true
				}
			}
			return !handled
		})
		if handled {
			return true
		}
	}
	return false
}
