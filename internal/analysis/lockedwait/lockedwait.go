// Package lockedwait flags barrier waits performed while a mutex acquired
// in the same function is still held — the classic sleep-holding-a-lock
// deadlock.
//
// A thrifty barrier routes long predicted stalls to parking tiers: the
// waiting goroutine blocks, possibly for the whole barrier interval. If
// it blocks while holding a sync.Mutex or sync.RWMutex, every other
// goroutine that needs that lock — typically including the barrier
// participants it is waiting for — stalls behind it, and the rendezvous
// can never complete: the sleeper holds the very resource its release
// depends on. (The paper's §3.1 sleep states have the same
// hazard in hardware: a processor must not go to sleep holding a lock
// other processors spin on.)
//
// The analysis is path-aware: each function body gets a control-flow
// graph (internal/analysis/cfg) and a forward may-held lock-set dataflow
// (internal/analysis/lockset) — Lock and RLock add the receiver to the
// set, Unlock and RUnlock remove it, a deferred Unlock keeps it held to
// function exit, and branch joins union the branches (a lock released on
// only one path is still may-held after the join). Any
// Wait/WaitSite/WaitContext/WaitSiteContext call on a thrifty.Barrier
// reached with a non-empty set is reported; unreachable code contributes
// nothing. Function literals are scanned independently (they run on
// other goroutines' stacks). The transitive form — a call made under a
// held lock to a function that reaches a wait — is the lockorder
// analyzer's job.
package lockedwait

import (
	"go/ast"

	"thriftybarrier/internal/analysis"
	"thriftybarrier/internal/analysis/cfg"
	"thriftybarrier/internal/analysis/lockset"
)

// Analyzer is the lockedwait analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockedwait",
	Doc: "flags Barrier.Wait* calls made while a mutex acquired in the same " +
		"function is still held (sleep-holding-a-lock deadlock)",
	Run: run,
}

var waitMethods = map[string]bool{
	"Wait": true, "WaitSite": true, "WaitContext": true, "WaitSiteContext": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					scanFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				scanFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// scanFunc runs the may-held lock-set flow over one function body and
// reports every barrier wait reached with a lock held. Nested function
// literals are skipped by the walk; the outer Inspect in run visits them
// with their own graph and an empty entry set.
func scanFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	g := cfg.New(body)
	flow := lockset.Flow(info, g)
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		lockset.WalkBlock(info, b, flow.In[b], func(n ast.Node, held lockset.Set) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, method, ok := analysis.ReceiverOf(info, call)
			if !ok || !waitMethods[method] || !analysis.IsNamed(recv, analysis.ThriftyPkg, "Barrier") {
				return true
			}
			if len(held) > 0 {
				pass.Reportf(call.Pos(),
					"%s called while mutex %q is held: a parked barrier waiter holding a lock deadlocks every goroutine that needs it (unlock before waiting)",
					"(*thrifty.Barrier)."+method, held.Min())
			}
			return true
		})
	}
}
