// Package analysistest runs an analyzer over golden test packages and
// checks its diagnostics against "// want" expectations, mirroring the
// x/tools package of the same name.
//
// Test packages live in GOPATH-style layout under the calling test's
// testdata directory: testdata/src/<importpath>/*.go. They may import
// one another (cross-package fact flow is exercised by listing the
// dependency first) and real module packages such as
// splitfs/internal/pmem, which resolve from compiler export data.
//
// An expectation is a comment on the flagged line:
//
//	dev.StoreNT(0, p, cat) // want `not covered by a fence`
//
// Each backquoted (or double-quoted) string is a regexp that must match
// the message of exactly one diagnostic reported on that line; any
// diagnostic or expectation left unmatched fails the test.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"splitfs/internal/analysis"
)

// Run loads each listed package from dir (a testdata root) in order,
// runs the analyzer over all of them with a shared fact store, and
// checks every package's want expectations. It returns the surviving
// diagnostics for any extra assertions.
//
// A listed path under the module's own path ("splitfs/...") is a real
// module package: it and its module dependencies are analyzed from
// source for the facts they export, and their diagnostics are dropped.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) []analysis.Diagnostic {
	t.Helper()
	loader := analysis.NewLoader("")
	loader.SrcRoot = filepath.Join(testdata, "src")

	var pkgs []*analysis.Package
	for _, path := range pkgPaths {
		if strings.HasPrefix(path, "splitfs/") {
			deps, err := loader.Load(path)
			if err != nil {
				t.Fatalf("loading %s: %v", path, err)
			}
			for _, pkg := range deps {
				pkg.FactsOnly = true
			}
			pkgs = append(pkgs, deps...)
			continue
		}
		pkg, err := loader.LoadDir(filepath.Join(loader.SrcRoot, filepath.FromSlash(path)), path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	res, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants := map[key][]*wantExpectation{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			collectWants(t, pkg.Fset, f, wants)
		}
	}
	for _, d := range res.Diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, w.re)
			}
		}
	}
	return res.Diags
}

type wantExpectation struct {
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, wants map[key][]*wantExpectation) {
	t.Helper()
	for _, g := range f.Comments {
		for _, c := range g.List {
			// A want marker may trail other comment content, e.g. a
			// directive or suppression under test: `//lint:ignore x // want ...`.
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "want ")
			if !ok {
				if i := strings.Index(text, "// want "); i >= 0 {
					rest, ok = text[i+len("// want "):], true
				}
			}
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
				}
				k := key{pos.Filename, pos.Line}
				wants[k] = append(wants[k], &wantExpectation{re: re})
			}
		}
	}
}

type key struct {
	file string
	line int
}

// Testdata returns the canonical testdata directory for the caller.
func Testdata(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}
