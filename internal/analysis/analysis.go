// Package analysis is the repository's static-analysis framework: a
// deliberately small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface the splitfs-vet suite needs.
//
// The real x/tools module is not vendored (the repository builds with
// the standard library only), so this package provides the same three
// moving parts the suite would otherwise import:
//
//   - Analyzer / Pass / Diagnostic — the per-package unit of analysis
//     (analysis.go, this file);
//   - a loader that type-checks module packages from source while
//     resolving imports from compiler export data produced by
//     `go list -export`, so the whole tree can be analyzed offline
//     with full type information (load.go);
//   - a driver that runs analyzers over packages in dependency order
//     with a shared fact store, then applies //lint:ignore
//     suppressions (driver.go, annotations.go).
//
// The four analyzers themselves live in subpackages (lockorder,
// persist, determinism, wireerr); cmd/splitfs-vet is the
// multichecker binary.
// DESIGN.md ("Static analysis") documents the annotation grammar each
// analyzer consumes and the suppression policy.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker. Run is invoked once per
// loaded package, in dependency order, so facts exported while
// analyzing a package are visible when its importers are analyzed.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments ("//lint:ignore splitfs-<name> reason").
	Name string
	// Doc is the one-paragraph description printed by splitfs-vet.
	Doc string
	// Run performs the analysis. Diagnostics go through pass.Reportf;
	// an error aborts the whole run (reserved for internal failures,
	// not findings).
	Run func(pass *Pass) error
}

// Pass carries one package's worth of material to an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File // parsed with comments
	Pkg      *types.Package
	Info     *types.Info
	Facts    *FactStore

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: splitfs-%s: %s", d.Pos, d.Analyzer, d.Message)
}

// FactStore is the cross-package memory of one driver run. Facts are
// keyed by (analyzer, object id) where object ids are stable strings
// built by FuncID/FieldID, so a fact exported while source-checking a
// package can be found later from an importer whose view of the same
// object came from compiler export data.
type FactStore struct {
	m map[string]any
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{m: map[string]any{}} }

func factKey(analyzer, id string) string { return analyzer + "\x00" + id }

// Export records fact value v for object id under the analyzer's
// namespace, replacing any previous value.
func (s *FactStore) Export(analyzer, id string, v any) {
	s.m[factKey(analyzer, id)] = v
}

// Import returns the fact for (analyzer, id), if any.
func (s *FactStore) Import(analyzer, id string) (any, bool) {
	v, ok := s.m[factKey(analyzer, id)]
	return v, ok
}

// FuncID returns the stable identifier of a function or method, e.g.
// "splitfs/internal/pmem.New" or "splitfs/internal/pmem.(Device).Fence".
// It returns "" for builtins and other objects without a package.
func FuncID(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			return fmt.Sprintf("%s.(%s).%s", fn.Pkg().Path(), name, fn.Name())
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// FieldID returns the stable identifier of a struct field, e.g.
// "splitfs/internal/pmem.shard.mu". recv is the type owning the field
// (pointers are stripped); it returns "" when the owner is unnamed.
func FieldID(recv types.Type, field *types.Var) string {
	if field == nil || field.Pkg() == nil {
		return ""
	}
	name := recvTypeName(recv)
	if name == "" {
		return ""
	}
	return fmt.Sprintf("%s.%s.%s", field.Pkg().Path(), name, field.Name())
}

// recvTypeName names the defined type under ptr/alias wrappers.
func recvTypeName(t types.Type) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u.Obj().Name()
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return ""
		}
	}
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// CalleeFunc resolves the *types.Func a call expression invokes, or nil
// for builtins, conversions, and calls of function-typed values. Method
// values and qualified identifiers both resolve.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// IsTestFile reports whether f came from a _test.go file. Analyzers
// whose invariants only bind production code (persist, determinism,
// wireerr) skip such files: crash and race tests violate them on
// purpose, under the harness's control. Lockorder checks test files
// too: a test that inverts the lock order can deadlock like any caller.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// IsPkgPathIn reports whether path is pkg or a subpackage of pkg.
func IsPkgPathIn(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}
