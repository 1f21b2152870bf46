package lint

import (
	"go/ast"
)

// nilGuard enforces the obs package's documented contract: instruments
// obtained from a nil registry are inert, so every exported
// pointer-receiver method on a type annotated `//summarylint:nilsafe`
// must either
//
//   - begin with the guard `if <recv> == nil { return ... }`, or
//   - be a single-statement delegation to another method on the same
//     receiver (Counter.Inc -> c.Add(1)), which carries the guard.
//
// Unexported methods and value-receiver methods are out of scope (a
// value receiver cannot be nil).
type nilGuard struct{}

func (nilGuard) Name() string { return "nilguard" }
func (nilGuard) Doc() string {
	return "exported methods on nilsafe types must begin with the nil-receiver guard"
}

func (a nilGuard) Check(prog *Program) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		marked := make(map[string]bool)
		for _, f := range pkg.Files {
			for name := range nilsafeTypes(f) {
				marked[name] = true
			}
		}
		if len(marked) == 0 {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Recv == nil || !fd.Name.IsExported() {
					continue
				}
				recvName, typeName, isPtr := receiverInfo(fd)
				if !isPtr || !marked[typeName] {
					continue
				}
				if hasNilGuard(fd, recvName) || delegates(fd, recvName) {
					continue
				}
				out = append(out, diag(prog.Fset, "nilguard", fd.Pos(),
					"exported method (*%s).%s lacks the nil-receiver guard `if %s == nil { return ... }` required by //summarylint:nilsafe",
					typeName, fd.Name.Name, nonEmpty(recvName, "recv")))
			}
		}
	}
	return out
}

// receiverInfo extracts the receiver variable name, its type name, and
// whether it is a pointer receiver.
func receiverInfo(fd *ast.FuncDecl) (recvName, typeName string, isPtr bool) {
	if len(fd.Recv.List) != 1 {
		return "", "", false
	}
	field := fd.Recv.List[0]
	if len(field.Names) == 1 {
		recvName = field.Names[0].Name
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		isPtr = true
		t = star.X
	}
	// Generic receivers look like T[P]; unwrap the index.
	switch t := t.(type) {
	case *ast.Ident:
		typeName = t.Name
	case *ast.IndexExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			typeName = id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			typeName = id.Name
		}
	}
	return recvName, typeName, isPtr
}

// hasNilGuard matches a first statement of the form
// `if <recv> == nil { return ... }` (single return, no else).
func hasNilGuard(fd *ast.FuncDecl, recvName string) bool {
	if recvName == "" || len(fd.Body.List) == 0 {
		return false
	}
	ifs, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil || ifs.Else != nil {
		return false
	}
	cmp, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || cmp.Op.String() != "==" {
		return false
	}
	if !(isIdent(cmp.X, recvName) && isIdent(cmp.Y, "nil")) &&
		!(isIdent(cmp.X, "nil") && isIdent(cmp.Y, recvName)) {
		return false
	}
	if len(ifs.Body.List) != 1 {
		return false
	}
	_, ok = ifs.Body.List[0].(*ast.ReturnStmt)
	return ok
}

// delegates matches a body that is exactly one call to a method on the
// same receiver, as a statement or a return.
func delegates(fd *ast.FuncDecl, recvName string) bool {
	if recvName == "" || len(fd.Body.List) != 1 {
		return false
	}
	var call *ast.CallExpr
	switch s := fd.Body.List[0].(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.ReturnStmt:
		if len(s.Results) == 1 {
			call, _ = s.Results[0].(*ast.CallExpr)
		}
	}
	if call == nil {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return isIdent(sel.X, recvName)
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func nonEmpty(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}
