package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// LoadTestdata type-checks golden packages under a testdata/src root for
// the analyzer unit tests. Packages import each other by their path
// relative to srcRoot; stdlib imports resolve through export data
// produced on the fly.
func LoadTestdata(srcRoot string, paths ...string) (*Program, error) {
	l := newLoader()
	stdlib := make(map[string]bool)
	err := filepath.Walk(srcRoot, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(srcRoot, dir)
		if err != nil {
			return err
		}
		imp := filepath.ToSlash(rel)
		l.src[imp] = append(l.src[imp], p)
		// Pre-scan imports so one `go list` run can cover the stdlib.
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			stdlib[ip] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range l.src {
		sort.Strings(f)
	}
	// Local (testdata-relative) imports resolve from source; drop them
	// from the stdlib list.
	var std []string
	for ip := range stdlib {
		if _, local := l.src[ip]; !local && ip != "unsafe" {
			std = append(std, ip)
		}
	}
	sort.Strings(std)
	if len(std) > 0 {
		exp, err := stdlibExports(srcRoot, std)
		if err != nil {
			return nil, err
		}
		l.exports = exp
	}
	return l.check(srcRoot, paths)
}

// stdlibExports resolves export-data files for pkgs and their transitive
// dependencies.
func stdlibExports(dir string, pkgs []string) (map[string]string, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(pkgs, " "), err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}
