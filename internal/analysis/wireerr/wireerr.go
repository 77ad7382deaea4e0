// Package wireerr keeps the server's error transport honest. It applies
// only to internal/server packages.
//
// Errors returned across the wire round-trip as codes only when they
// are (or wrap) a vfs sentinel — errToCode walks the Unwrap chain. A
// `return fmt.Errorf(...)` without a %w verb, or a `return
// errors.New(...)`, manufactures an error no client can match with
// errors.Is, so both are flagged. Package-level sentinel declarations
// stay legal; so does any expression the analyzer cannot see through
// (returned variables are the caller's business).
//
// Field order on the wire is not checked here: every message's layout
// is one row of internal/server's layouts table, encoded by put and
// decoded by get, and TestMessageRoundTrip runs every row both ways.
package wireerr

import (
	"go/ast"
	"strings"

	"splitfs/internal/analysis"
)

const name = "wireerr"

// Analyzer is the wireerr analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "check internal/server error returns wrap vfs sentinels",
	Run:  run,
}

// InScope reports whether a package is subject to the wire contracts.
func InScope(path string) bool {
	return strings.Contains(path, "internal/server") || strings.HasSuffix(path, "/server") || path == "server"
}

func run(pass *analysis.Pass) error {
	if !InScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkErrorReturns(pass, fd)
			}
		}
	}
	return nil
}

// checkErrorReturns flags returned errors that cannot round-trip.
func checkErrorReturns(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			call, ok := ast.Unparen(res).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := analysis.CalleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				continue
			}
			switch fn.Pkg().Path() + "." + fn.Name() {
			case "errors.New":
				pass.Reportf(call.Pos(),
					"returned errors.New error cannot round-trip the wire; wrap a vfs sentinel with fmt.Errorf and %%w, or define a package sentinel")
			case "fmt.Errorf":
				if len(call.Args) == 0 {
					continue
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok {
					continue // non-constant format: can't judge
				}
				if !strings.Contains(lit.Value, "%w") {
					pass.Reportf(call.Pos(),
						"returned fmt.Errorf error does not wrap with %%w; clients cannot match it with errors.Is across the wire")
				}
			}
		}
		return true
	})
}
