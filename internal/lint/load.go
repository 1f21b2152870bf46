package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader is a go/packages stand-in built from what the toolchain
// already ships: `go list -deps -export -json` locates every package and
// produces gc export data for the dependencies, target packages are
// parsed from source and type-checked with go/types, and a single
// importer chains the two worlds — source-checked packages are preferred
// (and memoized) so cross-package type identities hold, everything else
// resolves through export data.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matched by patterns (e.g. "./...") in
// module directory dir and returns them as a Program. Test files are not
// loaded: the analyzers police production code, and testdata trees are
// excluded by `go list` already.
func Load(dir string, patterns ...string) (*Program, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly,Standard,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	l := newLoader()
	var targets []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.DepOnly {
			if p.Export == "" && p.ImportPath != "unsafe" {
				return nil, fmt.Errorf("%s: no export data (build failed?)", p.ImportPath)
			}
			l.exports[p.ImportPath] = p.Export
			continue
		}
		if len(p.GoFiles) == 0 {
			continue // test-only package (e.g. the module root): nothing to analyze
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		l.src[p.ImportPath] = files
		targets = append(targets, p.ImportPath)
	}
	return l.check(dir, targets)
}

// loader chains source type-checking (targets) with gc export data
// (dependencies) behind one types.Importer.
type loader struct {
	fset    *token.FileSet
	src     map[string][]string // import path -> source files
	exports map[string]string   // import path -> export data file
	pkgs    map[string]*Package // memoized source-checked packages
	loading map[string]bool     // cycle guard
	gc      types.Importer
	errs    []string
}

func newLoader() *loader {
	l := &loader{
		fset:    token.NewFileSet(),
		src:     make(map[string][]string),
		exports: make(map[string]string),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.gc = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return l
}

// Import implements types.Importer: source packages win, then export
// data. This is what the type-checker calls for every import statement.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if _, ok := l.src[path]; ok {
		p, err := l.checkSource(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.gc.Import(path)
}

// checkSource parses and type-checks one source package.
func (l *loader) checkSource(path string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	var files []*ast.File
	for _, fname := range l.src[path] {
		f, err := parser.ParseFile(l.fset, fname, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files", path)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			l.errs = append(l.errs, err.Error())
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && len(l.errs) == 0 {
		l.errs = append(l.errs, err.Error())
	}
	p := &Package{
		Path:  path,
		Name:  files[0].Name.Name,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = p
	return p, nil
}

// check loads every target and assembles the Program, failing on any
// accumulated type error (an analyzer over ill-typed code lies).
func (l *loader) check(dir string, targets []string) (*Program, error) {
	prog := &Program{Fset: l.fset, Dir: dir}
	for _, path := range targets {
		p, ok := l.pkgs[path]
		if !ok {
			var err error
			p, err = l.checkSource(path)
			if err != nil {
				return nil, err
			}
		}
		prog.Pkgs = append(prog.Pkgs, p)
	}
	if len(l.errs) > 0 {
		n := len(l.errs)
		if n > 10 {
			l.errs = l.errs[:10]
		}
		return nil, fmt.Errorf("type errors (%d):\n  %s", n, strings.Join(l.errs, "\n  "))
	}
	return prog, nil
}
