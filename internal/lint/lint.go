// Package lint is the repo's domain-specific static-analysis suite: a
// dependency-free analyzer framework (go/parser + go/types, packages
// located with `go list`, the same no-third-party-tools idiom as
// cmd/benchgate) plus the six checks that turn this reproduction's
// invariants from convention into machinery:
//
//   - maporder: no `for range` over a map inside the deterministic
//     encode/query packages unless the loop provably feeds an
//     order-insensitive sink — the PR-5 nondeterminism class (v1
//     set-summary members encoded in map order) caught at review time.
//   - floatsum: no float64 accumulation whose iteration order is
//     unspecified — map ranges, or ranges over slices collected from map
//     keys and never sorted. Float addition is not associative; an
//     unordered sum is a nondeterministic estimate.
//   - lockorder: the registry lock is acquired before the store lock,
//     on every path, including through the Persister interface — the
//     rule Registry.Snapshot documents, checked over a cross-package
//     call graph.
//   - hotalloc: functions annotated `//summarylint:hot` contain no
//     allocation sites (heap-escaping composite literals, make/new,
//     closures, un-presized appends, implicit interface conversions) —
//     the static complement of benchgate's 0 allocs/op runtime gate.
//   - nilguard: exported pointer-receiver methods on types annotated
//     `//summarylint:nilsafe` (the obs instruments) begin with the
//     documented nil-receiver guard, or delegate to a method that does.
//   - deadexport: every exported name declared under internal/ has a user
//     in a non-test file outside its package — counting the references of
//     the bench/summaryload module, which builds against these packages
//     from outside, and methods that satisfy an interface. A name used
//     only at home is unexported; one used nowhere is deleted, or kept
//     with an ignore naming the paper result and the test that pins it.
//
// Diagnostics are suppressible per line with `//summarylint:ignore
// <reason>` on the offending line or the line above; the reason is
// mandatory — a bare ignore is itself a diagnostic. The suite is
// diagnostics-only by design (no -fix): every finding either gets a code
// change or a written-down reason.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, positioned for editors and CI.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the full analysis unit: every target package, sharing one
// FileSet and one type-checker universe (cross-package identities hold).
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Dir is the directory the packages were loaded from.
	Dir string
}

// Analyzer is one check over a whole Program. Checks are whole-program,
// not per-package, because lockorder needs the cross-package call graph;
// the single-package analyzers simply loop.
type Analyzer interface {
	Name() string
	Doc() string
	Check(prog *Program) []Diagnostic
}

// Run executes the analyzers and applies `//summarylint:ignore`
// suppressions: a diagnostic is dropped when an ignore directive with a
// reason sits on its line or the line directly above. Ignore directives
// without a reason are reported as diagnostics themselves (analyzer
// "directive"), so a suppression can never silently lose its
// justification.
func Run(prog *Program, analyzers []Analyzer) []Diagnostic {
	ignores := collectIgnores(prog)
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Check(prog) {
			d.normalize()
			if ignores.suppresses(d.File, d.Line) {
				continue
			}
			out = append(out, d)
		}
	}
	out = append(out, ignores.missingReasons()...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// normalize fills the flat position fields from Pos.
func (d *Diagnostic) normalize() {
	if d.File == "" {
		d.File = d.Pos.Filename
		d.Line = d.Pos.Line
		d.Col = d.Pos.Column
	}
}

// diag builds a Diagnostic at a token.Pos.
func diag(fset *token.FileSet, analyzer string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Analyzer: analyzer, Pos: fset.Position(pos), Message: fmt.Sprintf(format, args...)}
}

// inScope reports whether a package path falls under any of the
// configured path suffixes (nil means every package is in scope). A
// suffix matches whole path segments: "internal/core" matches
// "repro/internal/core" but not "repro/internal/coreutils".
func inScope(path string, suffixes []string) bool {
	if len(suffixes) == 0 {
		return true
	}
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// derefNamed unwraps pointers and returns the named type, or nil.
func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isMapType reports whether t's underlying type is a map. Type
// parameters are never considered maps (generic code is out of scope for
// maporder — the concrete instantiations live in concrete packages).
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isInterfaceType reports whether t is an interface for boxing purposes.
// Type parameters are excluded: passing a T to a parameter of type T is
// not a conversion, even though a type parameter's underlying type is an
// interface.
func isInterfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	return types.IsInterface(t)
}

// basicInfo returns the types.BasicInfo of t's core basic type (0 when t
// is not basic).
func basicInfo(t types.Type) types.BasicInfo {
	if t == nil {
		return 0
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	return b.Info()
}

// sortCalls recognizes the standard ways a collected key slice becomes
// deterministic: sort.Strings/Ints/Float64s/Slice/SliceStable/Sort and
// slices.Sort/SortFunc/SortStableFunc.
var sortCalls = regexp.MustCompile(`^(sort\.(Strings|Ints|Float64s|Slice|SliceStable|Sort)|slices\.(Sort|SortFunc|SortStableFunc))$`)

// isSortCallOn reports whether call sorts the expression rendered as
// target (by source text — the approximation is deliberate and cheap).
func isSortCallOn(call *ast.CallExpr, target string) bool {
	name := exprText(call.Fun)
	if !sortCalls.MatchString(name) || len(call.Args) == 0 {
		return false
	}
	return exprText(call.Args[0]) == target
}

// exprText renders an expression as compact source text for identity
// comparisons (x.y, *p, pkg.F).
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.BasicLit:
		return e.Value
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	case *ast.IndexExpr:
		return exprText(e.X) + "[" + exprText(e.Index) + "]"
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = exprText(a)
		}
		return exprText(e.Fun) + "(" + strings.Join(args, ",") + ")"
	default:
		return fmt.Sprintf("%T", e)
	}
}
