package lint

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests load fixture packages from testdata/src (excluded
// from the normal build by the testdata convention) and match the
// suite's diagnostics against `// want` expectation comments: every want
// must be hit by a diagnostic on its line whose message matches the
// regexp, and every diagnostic must be claimed by a want.

type wantComment struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantMarker = regexp.MustCompile("// want [`\"](.+)[`\"]$")

func collectWants(t *testing.T, prog *Program) []wantComment {
	t.Helper()
	var wants []wantComment
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantMarker.FindStringSubmatch(c.Text)
					if m == nil {
						if strings.Contains(c.Text, "// want") {
							t.Fatalf("%s: malformed want comment: %s", prog.Fset.Position(c.Pos()), c.Text)
						}
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", prog.Fset.Position(c.Pos()), m[1], err)
					}
					p := prog.Fset.Position(c.Pos())
					wants = append(wants, wantComment{p.Filename, p.Line, re})
				}
			}
		}
	}
	return wants
}

func testGolden(t *testing.T, a Analyzer, pkgs ...string) {
	t.Helper()
	prog, err := LoadTestdata(filepath.Join("testdata", "src"), pkgs...)
	if err != nil {
		t.Fatalf("loading %v: %v", pkgs, err)
	}
	diags := Run(prog, []Analyzer{a})
	wants := collectWants(t, prog)
	if len(wants) == 0 {
		t.Fatalf("fixture %v has no want comments", pkgs)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		hit := false
		for i, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestMapOrderGolden(t *testing.T) {
	testGolden(t, mapOrder{}, "maporder/a")
}

func TestFloatSumGolden(t *testing.T) {
	testGolden(t, floatSum{}, "floatsum/a")
}

func TestLockOrderGolden(t *testing.T) {
	a := lockOrder{
		Classes: []lockClass{
			{PathSuffix: "lockorder/reg", TypeName: "Registry", Field: "mu", Label: "reg.Registry.mu"},
			{PathSuffix: "lockorder/st", TypeName: "Store", Field: "mu", Label: "st.Store.mu"},
		},
		Packages: []string{"lockorder/reg", "lockorder/st"},
	}
	testGolden(t, a, "lockorder/reg", "lockorder/st")
}

func TestHotAllocGolden(t *testing.T) {
	testGolden(t, hotAlloc{}, "hotalloc/a")
}

func TestNilGuardGolden(t *testing.T) {
	testGolden(t, nilGuard{}, "nilguard/a")
}

// TestDeadExportGolden: bench stands in for bench/summaryload, a second
// module that builds against the fixture through a replace directive.
func TestDeadExportGolden(t *testing.T) {
	a := deadExport{Modules: []string{"deadexport/bench"}}
	testGolden(t, a, "deadexport/internal/lib", "deadexport/internal/sib", "deadexport/cmd")
}

// TestDeadExportKindsGolden: types, vars, consts and methods are checked
// like funcs; a type is used when a name used outside spells it (a
// constructor's result, an exported field), a method when an interface
// literal or an instantiation of its generic type reaches it, and a
// func's calls to itself are not uses.
func TestDeadExportKindsGolden(t *testing.T) {
	testGolden(t, deadExport{}, "deadexport/internal/kinds", "deadexport/internal/use")
}

// TestDeadExportSkipsPackagesOutsideInternal: only packages with an
// internal segment are checked; a public package's exports are its API.
func TestDeadExportSkipsPackagesOutsideInternal(t *testing.T) {
	prog, err := LoadTestdata(filepath.Join("testdata", "src"), "deadexport/pub")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(prog, []Analyzer{deadExport{}}); len(diags) != 0 {
		t.Fatalf("deadexport checked a package outside internal/: %v", diags)
	}
}

// TestDeadExportModules: a module directory that does not exist is
// skipped, so the bench-only name is flagged as with no module at all,
// and one that does not load is reported, not silently passed over.
func TestDeadExportModules(t *testing.T) {
	src := filepath.Join("testdata", "src")
	prog, err := LoadTestdata(src, "deadexport/internal/lib", "deadexport/internal/sib", "deadexport/cmd")
	if err != nil {
		t.Fatal(err)
	}
	messages := func(a Analyzer) []string {
		var out []string
		for _, d := range Run(prog, []Analyzer{a}) {
			out = append(out, d.Message)
		}
		return out
	}
	without := messages(deadExport{})
	if got := messages(deadExport{Modules: []string{"deadexport/absent"}}); strings.Join(got, "\n") != strings.Join(without, "\n") {
		t.Errorf("with an absent module: %q; want the findings without one: %q", got, without)
	}
	if !strings.Contains(strings.Join(without, "\n"), "exported func lib.BenchOnly has no user") {
		t.Errorf("without the bench module lib.BenchOnly is not flagged: %q", without)
	}

	broken := t.TempDir()
	for name, body := range map[string]string{
		"go.mod":  "module broken\n\ngo 1.24\n",
		"main.go": "package main\n\nvar x int = \"not an int\"\n\nfunc main() {}\n",
	} {
		if err := os.WriteFile(filepath.Join(broken, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	abs, err := filepath.Abs(src)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(abs, broken)
	if err != nil {
		t.Fatal(err)
	}
	got := messages(deadExport{Modules: []string{rel}})
	if n := strings.Count(strings.Join(got, "\n"), "loading module: "); n != 1 {
		t.Errorf("an unloadable module gave %d loading errors, want 1: %q", n, got)
	}
}

// TestExportKeyAgreesAcrossModules: the bench module sees lib through
// export data, so its objects differ from the fixture's source objects;
// their keys must not.
func TestExportKeyAgreesAcrossModules(t *testing.T) {
	src := filepath.Join("testdata", "src")
	prog, err := LoadTestdata(src, "deadexport/internal/lib")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := Load(filepath.Join(src, "deadexport", "bench"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	var fromSource, fromBench string
	for id, obj := range prog.Pkgs[0].Info.Defs {
		if id.Name == "BenchOnly" {
			fromSource = exportKey(obj)
		}
	}
	for _, pkg := range bench.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if id.Name == "BenchOnly" {
				fromBench = exportKey(obj)
			}
		}
	}
	if want := "deadexport/internal/lib.BenchOnly"; fromSource != want || fromBench != want {
		t.Fatalf("keys from source %q and from the bench module %q, want both %q", fromSource, fromBench, want)
	}
}

// TestUnderInternal: an internal segment anywhere in the path, and only
// a whole segment, puts a package under internal/.
func TestUnderInternal(t *testing.T) {
	cases := map[string]bool{
		"internal":                true,
		"internal/core":           true,
		"repro/internal/core":     true,
		"repro/internal":          false,
		"repro/internalx/core":    false,
		"repro/pkg/internalstuff": false,
		"repro/pkg/api":           false,
	}
	for path, want := range cases {
		if got := underInternal(path); got != want {
			t.Errorf("underInternal(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestSpelledMarksReachableTypes: a type reached through pointers,
// containers, signatures, type arguments or exported struct fields is
// marked, one reached only through an unexported field is not, and a
// type outside internal/ is never marked.
func TestSpelledMarksReachableTypes(t *testing.T) {
	internal := types.NewPackage("repro/internal/p", "p")
	public := types.NewPackage("repro/pkg/q", "q")
	named := func(pkg *types.Package, name string, under types.Type) *types.Named {
		return types.NewNamed(types.NewTypeName(token.NoPos, pkg, name, nil), under, nil)
	}
	field := named(internal, "Field", types.Typ[types.Int])
	hidden := named(internal, "Hidden", types.Typ[types.Int])
	elem := named(internal, "Elem", types.Typ[types.Int])
	param := named(internal, "Param", types.Typ[types.Int])
	pub := named(public, "Pub", types.Typ[types.Int])
	outer := named(internal, "Outer", types.NewStruct([]*types.Var{
		types.NewField(token.NoPos, internal, "F", field, false),
		types.NewField(token.NoPos, internal, "h", hidden, false),
	}, nil))
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, internal, "x", types.NewMap(types.Typ[types.String], types.NewSlice(param)))),
		types.NewTuple(types.NewVar(token.NoPos, internal, "", types.NewPointer(outer)), types.NewVar(token.NoPos, internal, "", pub)),
		false)

	sp := spelled{make(map[string]bool), make(map[*types.Named]bool)}
	sp.mark(types.NewChan(types.SendRecv, types.NewArray(elem, 2)))
	sp.mark(sig)
	for _, want := range []string{"repro/internal/p.Outer", "repro/internal/p.Field", "repro/internal/p.Elem", "repro/internal/p.Param"} {
		if !sp.outside[want] {
			t.Errorf("%s not marked", want)
		}
	}
	for _, not := range []string{"repro/internal/p.Hidden", "repro/pkg/q.Pub"} {
		if sp.outside[not] {
			t.Errorf("%s marked", not)
		}
	}
}

// TestIgnoreNeedsReason: a bare //summarylint:ignore is itself reported.
func TestIgnoreNeedsReason(t *testing.T) {
	prog, err := LoadTestdata(filepath.Join("testdata", "src"), "directive/a")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, []Analyzer{mapOrder{}})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "directive" || !strings.Contains(d.Message, "requires a reason") {
		t.Fatalf("unexpected diagnostic: %s", d)
	}
}

// TestScope: package-suffix scoping matches whole path segments only.
func TestScope(t *testing.T) {
	cases := []struct {
		path string
		sufs []string
		want bool
	}{
		{"repro/internal/core", []string{"internal/core"}, true},
		{"internal/core", []string{"internal/core"}, true},
		{"repro/internal/coreutils", []string{"internal/core"}, false},
		{"repro/internal/server", []string{"internal/core"}, false},
		{"anything", nil, true},
	}
	for _, c := range cases {
		if got := inScope(c.path, c.sufs); got != c.want {
			t.Errorf("inScope(%q, %v) = %v, want %v", c.path, c.sufs, got, c.want)
		}
	}
}

// TestRepoIsClean runs the full default suite over the repository
// itself, so `go test` fails on any new violation even before the CI
// summarylint step runs. This is also the regression test for the
// acceptance mutations: deleting an obs nil guard or swapping the two
// acquisitions in Registry.Snapshot turns this red.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over the module")
	}
	prog, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(prog, DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d summarylint finding(s); run: go run ./cmd/summarylint ./...", len(diags))
	}

	// bench/summaryload is its own module and the only user of these
	// names: deadexport must count its references, or it would ask for a
	// change that breaks the benchmark's build.
	benchOnly := []string{"core.DecodeSummaryViewFrom", "core.SniffWireVersion", "server.Registry.Get", "server.Registry.PutCtx"}
	flagged := func(diags []Diagnostic) map[string]bool {
		out := make(map[string]bool)
		for _, d := range diags {
			for _, name := range benchOnly {
				if d.Analyzer == "deadexport" && strings.Contains(d.Message, " "+name+" ") {
					out[name] = true
				}
			}
		}
		return out
	}
	if got := flagged(diags); len(got) > 0 {
		t.Errorf("deadexport flags %v, which bench/summaryload uses", got)
	}
	if got := flagged(Run(prog, []Analyzer{deadExport{}})); len(got) != len(benchOnly) {
		t.Errorf("without bench/summaryload, deadexport flags %v of %v: are they still bench-only?", got, benchOnly)
	}
}
