package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// deadExport flags an exported name declared in a package under
// `internal/` — a package-level func, type, var or const, or a method —
// that no file outside its package refers to. Fields are not checked.
// Three kinds of reference are uses:
//
//   - an identifier in another package of the Program that resolves to
//     the name;
//   - an identifier in one of the Modules — further module directories,
//     loaded on their own with Load — that resolves to a name with the
//     same import path, receiver and spelling (a module that builds
//     against this one through a replace directive sees its packages as
//     export data, so objects are matched by name, not identity);
//   - a method that makes a named type of the Program, or a pointer to
//     one, satisfy an interface the Program can see: one declared in a
//     package it imports (io.Writer, json.Marshaler, fmt.Stringer), one
//     it declares, or an interface literal it writes. Such a method is
//     called through the interface, never by name.
//
// A type also counts as used outside when another package uses a name
// whose type spells it (see spelled): a caller that holds the value an
// exported constructor returned uses the type without writing its name.
//
// A finding used inside its own package says to unexport it; one used
// nowhere says to delete it.
type deadExport struct {
	// Modules are module directories, relative to the Program's Dir,
	// whose references count as uses. A directory that does not exist is
	// skipped.
	Modules []string
}

func (deadExport) Name() string { return "deadexport" }
func (deadExport) Doc() string {
	return "no exported name in internal/ without a user outside its package"
}

func (a deadExport) Check(prog *Program) []Diagnostic {
	type candidate struct {
		obj  types.Object
		key  string
		kind string
		decl ast.Node // the uses inside it (recursion) do not count
	}
	var cands []candidate
	for _, pkg := range prog.Pkgs {
		if !underInternal(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					kind := "func"
					if d.Recv != nil {
						kind = "method"
					}
					obj := pkg.Info.Defs[d.Name]
					cands = append(cands, candidate{obj, exportKey(obj), kind, d})
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								obj := pkg.Info.Defs[s.Name]
								cands = append(cands, candidate{obj, exportKey(obj), "type", s})
							}
						case *ast.ValueSpec:
							kind := "var"
							if d.Tok == token.CONST {
								kind = "const"
							}
							for _, n := range s.Names {
								if n.IsExported() {
									obj := pkg.Info.Defs[n]
									cands = append(cands, candidate{obj, exportKey(obj), kind, s})
								}
							}
						}
					}
				}
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}

	// Keys (see exportKey) referenced from inside and from outside their
	// package.
	inside, outside := make(map[string]bool), make(map[string]bool)
	spell := spelled{outside, make(map[*types.Named]bool)}
	declOf := make(map[string]ast.Node, len(cands))
	for _, c := range cands {
		declOf[c.key] = c.decl
	}
	for _, pkg := range prog.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if obj.Pkg() == nil || !underInternal(obj.Pkg().Path()) {
				continue
			}
			key := exportKey(obj)
			if obj.Pkg().Path() != pkg.Path {
				outside[key] = true
				spell.mark(obj.Type())
			} else if d := declOf[key]; d == nil || id.Pos() < d.Pos() || id.Pos() >= d.End() {
				inside[key] = true
			}
		}
	}
	var out []Diagnostic
	for _, dir := range a.Modules {
		dir = filepath.Join(prog.Dir, dir)
		if _, err := os.Stat(dir); err != nil {
			continue
		}
		mod, err := Load(dir, "./...")
		if err != nil {
			out = append(out, Diagnostic{Analyzer: "deadexport", File: dir, Message: "loading module: " + err.Error()})
			continue
		}
		for _, pkg := range mod.Pkgs {
			for _, obj := range pkg.Info.Uses {
				if obj.Pkg() != nil && underInternal(obj.Pkg().Path()) {
					outside[exportKey(obj)] = true
					spell.mark(obj.Type())
				}
			}
		}
	}
	markInterfaceMethods(prog, outside)

	for _, c := range cands {
		switch {
		case outside[c.key]:
		case inside[c.key]:
			out = append(out, diag(prog.Fset, "deadexport", c.obj.Pos(),
				"exported %s %s is used only inside package %s: unexport it",
				c.kind, displayName(c.obj), c.obj.Pkg().Name()))
		default:
			out = append(out, diag(prog.Fset, "deadexport", c.obj.Pos(),
				"exported %s %s has no user: delete it, or name the paper result and the test that pin it in //summarylint:ignore",
				c.kind, displayName(c.obj)))
		}
	}
	return out
}

// spelled marks, as used outside, every named type that t spells:
// through pointers, slices, arrays, maps, channels, signatures, type
// arguments and the exported fields of a struct it reaches — a caller
// that holds a value of the type reads those fields without writing
// their types' names.
type spelled struct {
	outside map[string]bool
	seen    map[*types.Named]bool
}

func (sp spelled) mark(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		if sp.seen[t] {
			return
		}
		sp.seen[t] = true
		if t.Obj().Pkg() != nil && underInternal(t.Obj().Pkg().Path()) {
			sp.outside[exportKey(t.Origin().Obj())] = true
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			sp.mark(t.TypeArgs().At(i))
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					sp.mark(f.Type())
				}
			}
		}
	case *types.Pointer:
		sp.mark(t.Elem())
	case *types.Slice:
		sp.mark(t.Elem())
	case *types.Array:
		sp.mark(t.Elem())
	case *types.Chan:
		sp.mark(t.Elem())
	case *types.Map:
		sp.mark(t.Key())
		sp.mark(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				sp.mark(tup.At(i).Type())
			}
		}
	}
}

// underInternal reports whether an import path has an `internal`
// segment.
func underInternal(path string) bool {
	return path == "internal" || strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// exportKey names an object by import path, receiver and name, so that
// the same declaration seen from source and from export data agrees.
func exportKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if n := derefNamed(recv.Type()); n != nil {
				return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
			}
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// displayName renders pkg.Name or pkg.Recv.Name for messages.
func displayName(obj types.Object) string {
	key := exportKey(obj)
	return key[strings.LastIndex(obj.Pkg().Path(), "/")+1:]
}

// markInterfaceMethods adds to used the keys of the methods through which
// a named type of the Program (or a pointer to one) satisfies an
// interface the Program can see. Promoted methods resolve to the embedded
// type's declaration, so an embedding satisfies on its behalf.
func markInterfaceMethods(prog *Program, used map[string]bool) {
	var ifaces []*types.Interface
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	var named []*types.Named
	for _, pkg := range prog.Pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
	}

	for _, n := range named {
		if types.IsInterface(n) {
			continue
		}
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			ms := types.NewMethodSet(t)
			if ms.Len() == 0 {
				continue
			}
		next:
			for _, it := range ifaces {
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if ms.Lookup(m.Pkg(), m.Name()) == nil {
						continue next
					}
				}
				if !types.Implements(t, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					used[exportKey(ms.Lookup(m.Pkg(), m.Name()).Obj())] = true
				}
			}
		}
	}
}
