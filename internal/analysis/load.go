package analysis

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

// Package is one loaded, type-checked module package.
type Package struct {
	PkgPath string
	Files   []*ast.File
	Fset    *token.FileSet
	Types   *types.Package
	Info    *types.Info
	// FactsOnly marks a package analyzed only for the facts it exports:
	// a dependency of the matched packages, or a matched package whose
	// test variant is analyzed in its place. Run drops its diagnostics
	// and does not inventory its suppressions.
	FactsOnly bool
}

// Loader type-checks packages for analysis without any network or
// x/tools dependency. Module packages are parsed from source (the
// analyzers need ASTs and comments); their imports resolve from the
// compiler export data `go list -export` leaves in the build cache, so
// loads work offline and the standard library is never type-checked.
type Loader struct {
	// Dir is the working directory for `go list` (any directory inside
	// the module). Empty means the process working directory.
	Dir string
	// SrcRoot, when set, resolves import paths from GOPATH-style source
	// directories under it before consulting export data. The
	// analysistest harness points it at testdata/src so test packages
	// can import each other and real module packages side by side.
	SrcRoot string

	fset   *token.FileSet
	meta   map[string]*listedPackage // by go list ID ("p [p.test]" for a test variant)
	gc     types.ImporterFrom
	srcPkg map[string]*Package // SrcRoot packages, by import path
}

// listedPackage is the subset of `go list -json` the loader consumes.
type listedPackage struct {
	ImportPath string // the ID: "p", or "p [q.test]" for a variant built for q's test
	ForTest    string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string // import path -> ID, where they differ
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{
		Dir:    dir,
		fset:   token.NewFileSet(),
		meta:   map[string]*listedPackage{},
		srcPkg: map[string]*Package{},
	}
	l.gc = importer.ForCompiler(l.fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l
}

// lookupExport feeds the gc importer the export-data file of a go list
// ID, shelling out to `go list -export` for IDs not yet listed.
func (l *Loader) lookupExport(id string) (io.ReadCloser, error) {
	p, ok := l.meta[id]
	if !ok || p.Export == "" {
		if _, err := l.goList(id); err != nil {
			return nil, err
		}
		if p, ok = l.meta[id]; !ok || p.Export == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", id)
		}
	}
	return os.Open(p.Export)
}

// goList lists args (flags, then patterns) with their dependencies, in
// the dependency order `-deps` guarantees, and records each package's
// metadata, export-data location included.
func (l *Loader) goList(args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,ForTest,Dir,Export,GoFiles,ImportMap,Standard,DepOnly,Module,Error",
	}, args...)...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(args, " "), err, stderr.String())
	}
	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if prev, ok := l.meta[p.ImportPath]; !ok || prev.Export == "" {
			l.meta[p.ImportPath] = p
		}
		listed = append(listed, p)
	}
	return listed, nil
}

// Load lists patterns with their tests and returns every module package
// the analysis needs, parsed with comments and fully type-checked, in
// the order Run needs:
//
//   - first the plain build of each module package the patterns depend
//     on, in dependency order. It is FactsOnly if it is a dependency,
//     or if a test variant is analyzed in its place;
//   - then the test variants, in dependency order: a matched package p
//     built with its _test.go files ("p [p.test]"), its external test
//     package p_test, and, FactsOnly, the dependencies rebuilt against
//     p's test files.
//
// A variant is type-checked under its package path, so its facts have
// the same keys as the plain build's; its imports resolve through its
// ImportMap. Coming after the whole plain build, every variant sees the
// facts of each package its test files import.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(append([]string{"-test"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var plain, variants []*listedPackage
	tested := map[string]bool{} // matched packages with an internal test variant
	for _, p := range listed {
		path, _, variant := strings.Cut(p.ImportPath, " [")
		switch {
		case p.Standard || p.Module == nil:
		case variant:
			variants = append(variants, p)
			if path == p.ForTest && !p.DepOnly {
				tested[path] = true
			}
		case p.ForTest == "" && strings.HasSuffix(path, ".test"):
			// The generated test main: nothing to analyze.
		default:
			plain = append(plain, p)
		}
	}
	var pkgs []*Package
	for _, p := range append(plain, variants...) {
		pkg, err := l.typeCheck(p)
		if err != nil {
			return nil, err
		}
		pkg.FactsOnly = p.DepOnly || tested[p.ImportPath]
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck parses and type-checks one listed package from source.
func (l *Loader) typeCheck(m *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(m.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var imp types.Importer = (*loaderImporter)(l)
	if len(m.ImportMap) > 0 {
		// The variant's view of its imports: a fresh importer, so that
		// an import path names the one build the compiler used.
		imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
			if id, ok := m.ImportMap[path]; ok {
				path = id
			}
			return l.lookupExport(path)
		})
	}
	path, _, _ := strings.Cut(m.ImportPath, " [")
	return l.check(path, files, imp)
}

// LoadDir parses the .go files of one directory as a package with the
// given import path and type-checks it — the analysistest entry point.
// Imports resolve via SrcRoot first, then module/stdlib export data.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	pkg, err := l.check(importPath, files, (*loaderImporter)(l))
	if err != nil {
		return nil, err
	}
	l.srcPkg[importPath] = pkg
	return pkg, nil
}

// check runs the type checker over parsed files.
func (l *Loader) check(importPath string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", importPath, err)
	}
	return &Package{
		PkgPath: importPath,
		Files:   files,
		Fset:    l.fset,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// loaderImporter adapts the loader for types.Config.Importer: SrcRoot
// packages type-check from source, everything else comes from export
// data.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if pkg, ok := l.srcPkg[path]; ok {
		return pkg.Types, nil
	}
	if l.SrcRoot != "" {
		src := filepath.Join(l.SrcRoot, filepath.FromSlash(path))
		if st, err := os.Stat(src); err == nil && st.IsDir() {
			pkg, err := l.LoadDir(src, path)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	return l.gc.ImportFrom(path, dir, mode)
}
