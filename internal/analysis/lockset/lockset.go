// Package lockset computes may-held mutex sets over the cfg package's
// control-flow graphs: a forward dataflow analysis whose fact at a
// program point is the set of locks that may be held there on some path
// from function entry.
//
// The join is set union — "may be held" is the sound direction for the
// deadlock checks built on top (lockedwait, lockorder): a barrier wait is
// dangerous if any path reaches it with a lock held, so merging branches
// keeps both branches' acquisitions. A deferred Unlock does not release
// during the scan (it runs at function exit, after every wait the
// function performs), matching the defer semantics the syntactic
// lockedwait encoded by hand.
package lockset

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"thriftybarrier/internal/analysis"
	"thriftybarrier/internal/analysis/cfg"
)

// Lock records one acquisition: where it happened and the lock's
// canonical cross-function class (see Class).
type Lock struct {
	Pos   token.Pos
	Class string
}

// Set is a may-held lock set: receiver display text (types.ExprString of
// the lock expression) to its acquisition record. The display key
// intentionally matches the syntactic lockedwait's keying so `mu` and
// `s.mu` remain distinct locks and diagnostics print the same receiver
// the source spells.
type Set map[string]Lock

// with returns a copy of s with key added; Set values are treated as
// immutable by the dataflow engine, so transfer never mutates in place.
func (s Set) with(key string, l Lock) Set {
	if _, ok := s[key]; ok {
		return s
	}
	out := make(Set, len(s)+1)
	for k, v := range s {
		out[k] = v
	}
	out[key] = l
	return out
}

// without returns a copy of s with key removed.
func (s Set) without(key string) Set {
	if _, ok := s[key]; !ok {
		return s
	}
	out := make(Set, len(s))
	for k, v := range s {
		if k != key {
			out[k] = v
		}
	}
	return out
}

// Names returns the held lock display names in sorted order.
func (s Set) Names() []string {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Classes returns the canonical classes of the held locks, sorted and
// deduplicated.
func (s Set) Classes() []string {
	seen := map[string]bool{}
	var classes []string
	for _, l := range s {
		if !seen[l.Class] {
			seen[l.Class] = true
			classes = append(classes, l.Class)
		}
	}
	sort.Strings(classes)
	return classes
}

// Min returns the lexicographically smallest held name, or "".
func (s Set) Min() string {
	best := ""
	for k := range s {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// Lattice is the join-semilattice over Set: bottom is the empty set,
// join is union.
type Lattice struct{}

// Bottom returns the empty set (nil).
func (Lattice) Bottom() Set { return nil }

// Join unions two sets, preferring to return an input unchanged.
func (Lattice) Join(a, b Set) Set {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := a
	for k, v := range b {
		out = out.with(k, v)
	}
	return out
}

// Equal reports whether two sets hold the same locks.
func (Lattice) Equal(a, b Set) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// lockTypes are the lock implementations tracked by the analysis.
var lockTypes = []struct{ pkg, name string }{
	{"sync", "Mutex"},
	{"sync", "RWMutex"},
}

func isLockType(t types.Type) bool {
	for _, lt := range lockTypes {
		if analysis.IsNamed(t, lt.pkg, lt.name) {
			return true
		}
	}
	return false
}

// Op classifies a call's effect on the lock set.
type Op int

// The classified lock operations.
const (
	NoOp    Op = iota
	Acquire    // Lock, RLock
	Release    // Unlock, RUnlock
)

// Classify resolves call to a lock operation on a tracked lock type,
// returning the receiver expression (the lock itself) when op != NoOp.
func Classify(info *types.Info, call *ast.CallExpr) (op Op, lock ast.Expr) {
	recv, method, ok := analysis.ReceiverOf(info, call)
	if !ok || !isLockType(recv) {
		return NoOp, nil
	}
	sel := call.Fun.(*ast.SelectorExpr)
	switch method {
	case "Lock", "RLock":
		return Acquire, sel.X
	case "Unlock", "RUnlock":
		return Release, sel.X
	}
	return NoOp, nil
}

// Class derives a canonical identity for a lock expression, stable
// across functions so interprocedural analyses can match acquisitions:
// a struct field becomes "(pkgpath.Type).field", a package-level var
// "pkgpath.var", and anything else (locals, complex expressions) falls
// back to the display text, which is only comparable within one
// function.
func Class(info *types.Info, lock ast.Expr) string {
	switch e := ast.Unparen(lock).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			obj := sel.Obj()
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return "(" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + ")." + obj.Name()
			}
		}
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return types.ExprString(lock)
}

// Transfer applies one CFG node's lock effects to held: every Lock/RLock
// on a tracked type adds the receiver, every immediate Unlock/RUnlock
// removes it. Calls inside DeferStmt subtrees are skipped (a deferred
// Unlock releases at function exit, not here) and FuncLit bodies are
// skipped (they run on other goroutines' stacks with their own graphs).
func Transfer(info *types.Info, n ast.Node, held Set) Set {
	ast.Inspect(n, func(sub ast.Node) bool {
		switch sub := sub.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			switch op, lock := Classify(info, sub); op {
			case Acquire:
				held = held.with(types.ExprString(lock), Lock{Pos: lock.Pos(), Class: Class(info, lock)})
			case Release:
				held = held.without(types.ExprString(lock))
			}
		}
		return true
	})
	return held
}

// Flow runs the forward may-held analysis over g. Result.In[b] is the
// set held at b's entry; use WalkBlock to replay within a block.
func Flow(info *types.Info, g *cfg.Graph) cfg.Result[Set] {
	return cfg.Forward[Set](g, Lattice{}, nil, func(b *cfg.Block, in Set) Set {
		for _, n := range b.Nodes {
			in = Transfer(info, n, in)
		}
		return in
	})
}

// WalkBlock replays b's nodes from the entry fact in, invoking visit for
// every AST node in source order with the lock set held at that node
// (before the node's own effect applies — a Lock call sees the set
// without itself; a Wait call sees exactly what is held around it).
// visit returning false prunes that subtree, lock effects included.
// Defer and function-literal subtrees are neither visited nor applied,
// matching Transfer. The returned set is the fact at block exit.
func WalkBlock(info *types.Info, b *cfg.Block, in Set, visit func(n ast.Node, held Set) bool) Set {
	for _, n := range b.Nodes {
		in = walk(info, n, in, visit)
	}
	return in
}

func walk(info *types.Info, n ast.Node, held Set, visit func(n ast.Node, held Set) bool) Set {
	ast.Inspect(n, func(sub ast.Node) bool {
		if sub == nil {
			return true
		}
		switch sub.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		}
		if !visit(sub, held) {
			return false
		}
		if call, ok := sub.(*ast.CallExpr); ok {
			switch op, lock := Classify(info, call); op {
			case Acquire:
				held = held.with(types.ExprString(lock), Lock{Pos: lock.Pos(), Class: Class(info, lock)})
			case Release:
				held = held.without(types.ExprString(lock))
			}
		}
		return true
	})
	return held
}
