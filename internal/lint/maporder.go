package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// mapOrder flags `for range` over a map in the deterministic packages
// unless every statement in the loop body is a provably order-insensitive
// sink. The benign vocabulary is deliberately small — anything outside it
// needs either a code change (sort the keys first) or a written-down
// `//summarylint:ignore reason`:
//
//   - declarations of per-iteration locals
//   - map-index assignment or delete (set semantics)
//   - integer/boolean counters: ++, --, integer compound assignment,
//     assignment of a constant
//   - `s = append(s, ...)` where s is sorted later in the same function
//     (collect-then-sort)
//   - control flow around those: if/else, switch, nested blocks and
//     loops, continue/break
//
// Float accumulation, function-call statements, returns from inside the
// loop, and writes through anything order-dependent are all flagged.
// Conditions of `if` statements are not inspected (reads are fine; it is
// writes and escapes that transmit iteration order).
type mapOrder struct {
	// Packages limits the check to these import-path suffixes
	// (nil = every package in the Program).
	Packages []string
}

func (mapOrder) Name() string { return "maporder" }
func (mapOrder) Doc() string {
	return "map iteration in deterministic packages must feed an order-insensitive sink"
}

func (a mapOrder) Check(prog *Program) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !inScope(pkg.Path, a.Packages) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, checkFuncMapRanges(prog.Fset, pkg, fd)...)
			}
		}
	}
	return out
}

func checkFuncMapRanges(fset *token.FileSet, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !isMapType(pkg.Info.TypeOf(rs.X)) {
			return true
		}
		w := &mapRangeWalker{pkg: pkg, fn: fd}
		w.stmts(rs.Body.List)
		for _, app := range w.appends {
			if !sortedAfter(pkg, fd, rs, app.target) {
				w.bad(app.pos, "appends map keys to %s without sorting it afterwards", app.target)
			}
		}
		if len(w.findings) > 0 {
			// One diagnostic per loop, anchored at the range keyword, with
			// the first offending statement named: the fix is almost always
			// "sort the keys first", not N local edits.
			f := w.findings[0]
			out = append(out, diag(fset, "maporder", rs.For,
				"range over map %s has an order-sensitive body: %s (sort the keys first, or //summarylint:ignore <reason>)",
				exprText(rs.X), f.what))
		}
		return true // nested map ranges get their own walk
	})
	return out
}

type mapRangeFinding struct {
	pos  token.Pos
	what string
}

type mapRangeAppend struct {
	pos    token.Pos
	target string
}

type mapRangeWalker struct {
	pkg      *Package
	fn       *ast.FuncDecl
	findings []mapRangeFinding
	appends  []mapRangeAppend
}

func (w *mapRangeWalker) bad(pos token.Pos, format string, args ...any) {
	w.findings = append(w.findings, mapRangeFinding{pos, fmt.Sprintf(format, args...)})
}

func (w *mapRangeWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *mapRangeWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.DeclStmt, *ast.EmptyStmt:
		// Per-iteration locals are order-free.
	case *ast.BranchStmt:
		// continue/break/goto select which iterations run, not an order.
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmts(s.Body.List)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.RangeStmt:
		w.stmts(s.Body.List)
	case *ast.ForStmt:
		w.stmts(s.Body.List)
	case *ast.IncDecStmt:
		if basicInfo(w.pkg.Info.TypeOf(s.X))&types.IsInteger == 0 {
			w.bad(s.Pos(), "%s%s on a non-integer", exprText(s.X), s.Tok)
		}
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && isBuiltinUse(w.pkg.Info, id) {
				return // builtin delete: set semantics
			}
			w.bad(s.Pos(), "calls %s, whose order sensitivity summarylint cannot prove", exprText(call.Fun))
			return
		}
		w.bad(s.Pos(), "statement %s is not in the order-insensitive vocabulary", exprText(s.X))
	case *ast.ReturnStmt:
		w.bad(s.Pos(), "returns from inside the loop (first-match-wins depends on iteration order)")
	default:
		w.bad(s.Pos(), "statement is not in the order-insensitive vocabulary")
	}
}

func (w *mapRangeWalker) assign(s *ast.AssignStmt) {
	if s.Tok == token.DEFINE {
		return // fresh per-iteration locals
	}
	// Compound assignment: allowed on integers (counting); floats and
	// everything else accumulate in iteration order.
	if s.Tok != token.ASSIGN {
		lhs := s.Lhs[0]
		if _, isIndex := lhs.(*ast.IndexExpr); isIndex && w.isMapIndex(lhs) {
			return
		}
		if basicInfo(w.pkg.Info.TypeOf(lhs))&types.IsInteger != 0 {
			return
		}
		w.bad(s.Pos(), "%s %s accumulates in iteration order", exprText(lhs), s.Tok)
		return
	}
	for i, lhs := range s.Lhs {
		switch lhs := lhs.(type) {
		case *ast.IndexExpr:
			if w.isMapIndex(lhs) {
				continue // map[k] = v: set semantics
			}
			w.bad(s.Pos(), "writes %s through an index that may depend on iteration order", exprText(lhs))
		case *ast.Ident, *ast.SelectorExpr:
			target := lhs.(ast.Expr)
			if id, ok := target.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			rhs := ast.Expr(nil)
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			}
			if call, ok := rhs.(*ast.CallExpr); ok && w.isSelfAppend(target, call) {
				w.appends = append(w.appends, mapRangeAppend{s.Pos(), exprText(target)})
				continue
			}
			if rhs != nil {
				if tv, ok := w.pkg.Info.Types[rhs]; ok && tv.Value != nil {
					continue // x = <constant>: idempotent, order-free
				}
			}
			w.bad(s.Pos(), "assigns %s a value that may depend on iteration order", exprText(target))
		default:
			w.bad(s.Pos(), "assignment target is not in the order-insensitive vocabulary")
		}
	}
}

// isMapIndex reports whether e is an index into a map.
func (w *mapRangeWalker) isMapIndex(e ast.Expr) bool {
	ix, ok := e.(*ast.IndexExpr)
	return ok && isMapType(w.pkg.Info.TypeOf(ix.X))
}

// isSelfAppend matches `s = append(s, ...)` (same expression text).
func (w *mapRangeWalker) isSelfAppend(lhs ast.Expr, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || !isBuiltinUse(w.pkg.Info, id) || len(call.Args) == 0 {
		return false
	}
	return exprText(call.Args[0]) == exprText(lhs)
}

// sortedAfter reports whether target is passed to a recognized sort call
// somewhere after the range loop in the same function.
func sortedAfter(pkg *Package, fd *ast.FuncDecl, rs *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		if isSortCallOn(call, target) {
			found = true
		}
		return !found
	})
	return found
}
