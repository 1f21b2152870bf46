package lint

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/hot.golden from the module's //summarylint:hot functions")

// TestHotListGolden lists every function of the module's production code
// that carries `//summarylint:hot` — the bodies hotalloc holds to no
// allocation — and compares the list with testdata/hot.golden. hotalloc
// only reads functions that carry the directive, so a clean report cannot
// say that a directive was dropped; this test does, and a directive added
// or dropped shows in the golden's diff. -update rewrites the golden.
func TestHotListGolden(t *testing.T) {
	got, err := hotFunctions(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "hot.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotSet, wantSet := lineSet(got), lineSet(string(want))
		for line := range wantSet {
			if !gotSet[line] {
				t.Errorf("no longer //summarylint:hot: %s", line)
			}
		}
		for line := range gotSet {
			if !wantSet[line] {
				t.Errorf("newly //summarylint:hot: %s", line)
			}
		}
		t.Errorf("the hot list differs from %s; if that is the point, rerun with -update", golden)
	}
}

// hotFunctions returns, one per line and sorted, "file: function" for each
// function carrying the directive in the non-test Go files of the module
// rooted at root — what `summarylint ./...` reads: testdata trees and
// nested modules are not part of it.
func hotFunctions(root string) (string, error) {
	var lines []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && isHot(fd) {
				lines = append(lines, fmt.Sprintf("%s: %s", filepath.ToSlash(rel), funcName(fd)))
			}
		}
		return nil
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n", err
}

// funcName names fd as Go source spells its receiver: "f", "T.f", "(*T).f".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := types.ExprString(fd.Recv.List[0].Type)
	if strings.HasPrefix(recv, "*") {
		recv = "(" + recv + ")"
	}
	return recv + "." + fd.Name.Name
}

func lineSet(s string) map[string]bool {
	set := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		set[line] = true
	}
	return set
}
