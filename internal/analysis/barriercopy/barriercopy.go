// Package barriercopy flags thrifty.Barrier, thrifty.Group and sim.Engine
// values that are copied: passed by value, assigned from another value,
// returned by value, or produced as range-loop copies.
//
// The guarded types embed a noCopy marker, so go vet's copylocks check
// catches many copies at run-of-vet time — but copylocks only understands
// sync.Locker-shaped fields, reports at slightly different places, and is
// easy to leave out of a build pipeline. This analyzer enforces the
// documented "must not be copied after first use" contract directly: a
// copied Barrier splits the per-call-site predictor state and the
// generation counter into two halves of a barrier that each think they
// are whole, a failure the runtime cannot detect. A copied thrifty.Group
// forks the registry pointer's enclosing value semantics: both copies
// still share the live tables, so the copy *appears* to work until
// someone zero-initializes or replaces one side, at which point lookups
// silently split between two registries resolving the same names to
// different barriers — a rendezvous that never completes. A copied
// sim.Engine is the event-arena analogue: the copy shares the arena,
// free-list and heap backing arrays until one side grows them, after
// which schedules and cancels split across two diverging queues; the
// pointer-sized sim.Handle, by contrast, is a value by design and copies
// freely.
package barriercopy

import (
	"go/ast"
	"go/types"

	"thriftybarrier/internal/analysis"
)

// Analyzer is the barriercopy analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "barriercopy",
	Doc: "flags thrifty.Barrier, thrifty.Group and sim.Engine values " +
		"copied by assignment, call argument, return, or range loop",
	Run: run,
}

// guarded lists the types whose by-value copies are reported, with the
// short display name used in diagnostics.
var guarded = []struct{ pkg, name, display string }{
	{analysis.ThriftyPkg, "Barrier", "thrifty.Barrier"},
	{analysis.ThriftyPkg, "Group", "thrifty.Group"},
	{analysis.SimPkg, "Engine", "sim.Engine"},
}

// guardType reports whether t is (or, transitively through struct and
// array composition, contains) one of the guarded types.
func guardType(t types.Type) (string, bool) {
	return containsGuard(t, map[types.Type]bool{})
}

func containsGuard(t types.Type, seen map[types.Type]bool) (string, bool) {
	if seen[t] {
		return "", false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		for _, g := range guarded {
			if analysis.IsNamed(u, g.pkg, g.name) {
				return g.display, true
			}
		}
		return containsGuard(u.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name, ok := containsGuard(u.Field(i).Type(), seen); ok {
				return name, true
			}
		}
	case *types.Array:
		return containsGuard(u.Elem(), seen)
	}
	// Pointers, slices, maps, channels and interfaces share the pointee:
	// copying them does not copy the barrier.
	return "", false
}

// copySource reports whether copying expr would duplicate an existing
// value: identifiers, field selections, dereferences, indexing and call
// results all read a live value. Composite literals and conversions of
// them construct a fresh value, which is initialization, not a copy.
func copySource(expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr, *ast.CallExpr, *ast.TypeAssertExpr:
		return true
	case *ast.ParenExpr:
		return copySource(e.X)
	}
	return false
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	typeOf := func(e ast.Expr) types.Type {
		if tv, ok := info.Types[e]; ok {
			return tv.Type
		}
		// Range-clause variables are definitions, not expressions: their
		// type hangs off the object, not the Types map.
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				return obj.Type()
			}
		}
		return nil
	}
	reportValue := func(pos ast.Node, what string, t types.Type) {
		if t == nil {
			return
		}
		if name, ok := guardType(t); ok {
			pass.Reportf(pos.Pos(), "%s %s by value; %s must not be copied after first use (use a pointer)", what, name, name)
		}
	}

	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			reportValue(field.Type, what, typeOf(field.Type))
		}
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkFieldList(n.Type.Params, "function takes")
				checkFieldList(n.Type.Results, "function returns")
			case *ast.FuncLit:
				checkFieldList(n.Type.Params, "function takes")
				checkFieldList(n.Type.Results, "function returns")
			case *ast.CallExpr:
				// Conversions construct, they do not pass.
				if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
					return true
				}
				for _, arg := range n.Args {
					if copySource(arg) {
						reportValue(arg, "call passes", typeOf(arg))
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					// `_ = x` evaluates without storing: not a copy.
					if len(n.Lhs) == len(n.Rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
							continue
						}
					}
					if copySource(rhs) {
						reportValue(rhs, "assignment copies", typeOf(rhs))
					}
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					if copySource(v) {
						reportValue(v, "declaration copies", typeOf(v))
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					reportValue(n.Value, "range copies", typeOf(n.Value))
				}
				if n.Key != nil {
					reportValue(n.Key, "range copies", typeOf(n.Key))
				}
			}
			return true
		})
	}
	return nil
}
