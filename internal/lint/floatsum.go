package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatSum flags float64 accumulation whose iteration order is
// unspecified. Float addition is not associative, so a sum taken in map
// order is a nondeterministic estimate — the exact bug class
// WeightedSample.SubsetSum fixed in PR 2. Two shapes are detected:
//
//  1. a float compound assignment (+=, -=, *=) to a variable declared
//     outside the loop, inside a `for range` over a map;
//  2. a range over a slice that was filled from a map range earlier in
//     the same function and never sorted in between, when the loop body
//     float-accumulates.
//
// maporder subsumes shape 1 inside its packages; FloatSum also covers
// estimator/query packages where map iteration is otherwise tolerated.
type floatSum struct {
	Packages []string
}

func (floatSum) Name() string { return "floatsum" }
func (floatSum) Doc() string {
	return "float64 accumulation must have a specified iteration order"
}

func (a floatSum) Check(prog *Program) []Diagnostic {
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
				out = append(out, checkFloatSums(prog.Fset, pkg, fd)...)
			}
		}
	}
	return out
}

func checkFloatSums(fset *token.FileSet, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic

	// Shape 1: float accumulation directly inside a map range.
	var mapRanges []*ast.RangeStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok && isMapType(pkg.Info.TypeOf(rs.X)) {
			mapRanges = append(mapRanges, rs)
		}
		return true
	})
	for _, rs := range mapRanges {
		for _, acc := range floatAccums(pkg, rs.Body) {
			out = append(out, diag(fset, "floatsum", acc.Pos(),
				"float accumulation %s inside range over map %s: sum order is unspecified (collect and sort the keys first)",
				exprText(acc.Lhs[0]), exprText(rs.X)))
		}
	}

	// Shape 2: slices filled from map keys, ranged without a sort.
	type fill struct {
		target string
		end    token.Pos
	}
	var fills []fill
	for _, rs := range mapRanges {
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && isBuiltinUse(pkg.Info, id) &&
				len(call.Args) > 0 && exprText(call.Args[0]) == exprText(as.Lhs[0]) {
				fills = append(fills, fill{exprText(as.Lhs[0]), rs.End()})
			}
			return true
		})
	}
	if len(fills) == 0 {
		return out
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || isMapType(pkg.Info.TypeOf(rs.X)) {
			return true
		}
		target := exprText(rs.X)
		for _, fl := range fills {
			if fl.target != target || rs.Pos() <= fl.end {
				continue
			}
			if sortBetween(fd, target, fl.end, rs.Pos()) {
				continue
			}
			for _, acc := range floatAccums(pkg, rs.Body) {
				out = append(out, diag(fset, "floatsum", acc.Pos(),
					"float accumulation %s while ranging %s, a slice of map keys never sorted after collection",
					exprText(acc.Lhs[0]), target))
			}
		}
		return true
	})
	return out
}

// floatAccums finds compound assignments (+=, -=, *=, /=) to
// float-typed variables declared outside body.
func floatAccums(pkg *Package, body *ast.BlockStmt) []*ast.AssignStmt {
	var out []*ast.AssignStmt
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		lhs := as.Lhs[0]
		if basicInfo(pkg.Info.TypeOf(lhs))&types.IsFloat == 0 {
			return true
		}
		// A variable declared inside the loop body resets every
		// iteration and cannot carry order across iterations.
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil &&
				obj.Pos() >= body.Pos() && obj.Pos() < body.End() {
				return true
			}
		}
		out = append(out, as)
		return true
	})
	return out
}

// sortBetween reports whether target is sorted by a recognized sort call
// positioned in (lo, hi) within fd.
func sortBetween(fd *ast.FuncDecl, target string, lo, hi token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= lo || call.Pos() >= hi {
			return true
		}
		if isSortCallOn(call, target) {
			found = true
		}
		return !found
	})
	return found
}
