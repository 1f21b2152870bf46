package lint

import (
	"go/ast"
	"go/types"
)

// hotAlloc checks functions annotated `//summarylint:hot`: the bodies
// behind benchgate's 0 allocs/op gate. Flagged constructs:
//
//   - &CompositeLit (escapes to the heap under any capture)
//   - slice, map, and channel composite literals
//   - make / new
//   - append (growth reallocates; presize at construction, or suppress
//     with a reason when the backing array's capacity is pinned)
//   - function literals (closure allocation)
//   - go / defer statements (scheduling and frame costs, not hot-path)
//   - implicit interface conversions: a concrete value passed to an
//     interface parameter, assigned to an interface variable, or
//     returned as an interface boxes its operand
//
// Struct composite literals used as values (Entry{Key: key, Rank: r}) are
// allowed — they stay on the stack. Method calls on already-interface
// values are allowed — the boxing happened elsewhere. Type parameters
// are never treated as interfaces. The check is intraprocedural: callees
// are covered by annotating them too.
type hotAlloc struct{}

func (hotAlloc) Name() string { return "hotalloc" }
func (hotAlloc) Doc() string {
	return "//summarylint:hot functions must contain no allocation sites"
}

func (a hotAlloc) Check(prog *Program) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isHot(fd) {
					continue
				}
				out = append(out, checkHotBody(prog, pkg, fd)...)
			}
		}
	}
	return out
}

func checkHotBody(prog *Program, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	bad := func(n ast.Node, format string, args ...any) {
		out = append(out, diag(prog.Fset, "hotalloc", n.Pos(), format, args...))
	}
	info := pkg.Info

	// Result types of the enclosing function, for return-site boxing.
	var results []types.Type
	if sig, ok := info.Defs[fd.Name].(*types.Func); ok {
		res := sig.Type().(*types.Signature).Results()
		for i := 0; i < res.Len(); i++ {
			results = append(results, res.At(i).Type())
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			bad(n, "closure in hot path: the func literal allocates")
			return false // its body is the closure's problem
		case *ast.GoStmt:
			bad(n, "go statement in hot path")
		case *ast.DeferStmt:
			bad(n, "defer in hot path")
		case *ast.UnaryExpr:
			if _, ok := n.X.(*ast.CompositeLit); ok {
				bad(n, "&composite literal in hot path escapes to the heap")
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map, *types.Chan:
				bad(n, "%s composite literal allocates in hot path", typeKind(info.TypeOf(n)))
			}
		case *ast.CallExpr:
			checkHotCall(info, n, bad)
		case *ast.AssignStmt:
			// Boxing at assignment: interface LHS, concrete RHS.
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					lt := info.TypeOf(n.Lhs[i])
					if isInterfaceType(lt) && boxes(info, n.Rhs[i]) {
						bad(n.Rhs[i], "assignment boxes %s into interface %s", exprText(n.Rhs[i]), lt)
					}
				}
			}
		case *ast.ReturnStmt:
			if len(n.Results) == len(results) {
				for i, r := range n.Results {
					if isInterfaceType(results[i]) && boxes(info, r) {
						bad(r, "return boxes %s into interface %s", exprText(r), results[i])
					}
				}
			}
		}
		return true
	})
	return out
}

// checkHotCall flags allocating builtins and interface boxing at call
// arguments.
func checkHotCall(info *types.Info, call *ast.CallExpr, bad func(ast.Node, string, ...any)) {
	if id, ok := call.Fun.(*ast.Ident); ok && isBuiltinUse(info, id) {
		switch id.Name {
		case "make":
			bad(call, "make allocates in hot path (hoist to construction)")
			return
		case "new":
			bad(call, "new allocates in hot path")
			return
		case "append":
			bad(call, "append in hot path may grow the backing array (presize at construction, or //summarylint:ignore with the capacity argument)")
			return
		case "len", "cap", "delete", "copy", "min", "max", "panic", "print", "println", "clear":
			return
		}
	}
	// Explicit conversion to an interface type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if isInterfaceType(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) {
			bad(call, "conversion boxes %s into interface %s", exprText(call.Args[0]), tv.Type)
		}
		return
	}
	// Interface parameters box concrete arguments.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else {
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		}
		if pt != nil && isInterfaceType(pt) && boxes(info, arg) {
			bad(arg, "argument boxes %s into interface %s", exprText(arg), pt)
		}
	}
}

// boxes reports whether expr is a concrete (non-interface, non-nil)
// value — i.e. storing it in an interface allocates. Untyped constants
// that fit in an iface word still box; flag them too, except nil.
func boxes(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	return !isInterfaceType(tv.Type)
}

// isBuiltinUse reports whether id resolves to a universe builtin (or is
// unresolved, the conservative reading).
func isBuiltinUse(info *types.Info, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	case *types.Chan:
		return "channel"
	}
	return "composite"
}
