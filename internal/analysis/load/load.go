// Package load type-checks Go packages for agcmlint without depending on
// golang.org/x/tools/go/packages: it shells out to `go list -deps -export`
// for the build graph and compiler export data, parses the target packages'
// sources, and type-checks them with the standard library's gc importer.
//
// Only a package's GoFiles are read, so _test.go files are never analyzed:
// tests legitimately use wall clocks, randomness, and deliberately-invalid
// protocol calls (e.g. sending a reserved tag to assert the panic).
package load

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
	"sort"
	"strings"

	"agcm/internal/analysis"
)

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
	Module     *struct {
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// Packages loads and type-checks the packages matched by patterns, run from
// dir (empty means the current directory).  Dependencies — standard library
// and module-internal alike — are imported from compiler export data, so
// only the matched packages themselves are parsed from source.
func Packages(dir string, patterns ...string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string)
	var targets []*listedPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var out []*analysis.Package
	for _, p := range targets {
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		}
		pkg, err := check(fset, imp, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// check parses and type-checks one listed package.
func check(fset *token.FileSet, imp types.Importer, p *listedPackage) (*analysis.Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	goVersion := ""
	if p.Module != nil && p.Module.GoVersion != "" {
		goVersion = "go" + p.Module.GoVersion
	}
	conf := &types.Config{Importer: imp, GoVersion: goVersion}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
	}
	return &analysis.Package{Fset: fset, Files: files, Pkg: tpkg, TypesInfo: info}, nil
}

// goList runs `go list -deps -export -json` over the patterns and decodes
// the JSON stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list %s: %s", strings.Join(patterns, " "), msg)
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}
