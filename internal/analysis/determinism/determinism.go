// Package determinism guards the simulator's reproducibility contract:
// same seed, same trace (DESIGN.md, "Determinism"). In deterministic
// packages it forbids the four ways nondeterminism has crept into the
// repository or its ancestors:
//
//   - wall-clock reads (time.Now/Since) — the sim clock is the only
//     time source; file flag `// +determinism:wallclock` opts a file
//     that legitimately reports wall time (benchmark drivers) out;
//   - package-global math/rand calls — globally seeded; use a seeded
//     *rand.Rand (sim.RNG) instead;
//   - goroutine spawns outside files flagged `// +determinism:concurrent`
//     (the declared concurrent-mode subsystems: relink worker, server);
//   - ranging over a map where the body emits persistence/I-O events or
//     appends to an outer slice that is never sorted afterwards — the
//     waldb bug class: Go randomizes map order, so the trace (or the
//     recovered log) reorders run to run. A body that provably
//     commutes can be annotated `// +determinism:unordered` on the
//     range line or the line above.
//
// A call "emits" if it reaches, directly or transitively (same-package
// fixpoint plus cross-package "emits" facts), a vfs interface method or
// one of package pmem's two records of order: a persistence event
// (Device.event) or the read cursor that makes a read sequential or
// random (Device.lastReadEnd). Every pmem method that reaches either,
// whatever type declares it, carries the fact, and so does every
// function above it, in pmem or any package importing it.
// Packages outside the deterministic set — the server (scheduling is
// client driven), benchfmt, the analysis tooling itself, and cmd
// utilities — are skipped entirely, as are test files.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"splitfs/internal/analysis"
)

const name = "determinism"

// File flags and the range annotation.
const (
	FlagWallclock  = "determinism:wallclock"
	FlagConcurrent = "determinism:concurrent"
	FlagUnordered  = "determinism:unordered"
)

// Analyzer is the determinism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "forbid wall-clock reads, global math/rand, undeclared goroutines, " +
		"and order-sensitive map iteration in deterministic packages",
	Run: run,
}

// Deterministic reports whether a package must uphold the
// reproducibility contract. Everything in the module is deterministic
// except the explicitly concurrent or tooling packages.
func Deterministic(path string) bool {
	if strings.Contains(path, "/analysis") || strings.HasPrefix(path, "analysis") {
		return false
	}
	base := path[strings.LastIndex(path, "/")+1:]
	switch base {
	case "server", "benchfmt":
		return false
	}
	if strings.Contains(path, "/cmd/") || strings.HasPrefix(path, "cmd/") {
		return false
	}
	return true
}

func run(pass *analysis.Pass) error {
	if !Deterministic(pass.Pkg.Path()) {
		return nil
	}

	// Same-package emits fixpoint over function declarations.
	type fnInfo struct {
		id      string
		body    *ast.BlockStmt
		callees []string
		emits   bool
	}
	var fns []*fnInfo
	local := map[string]*fnInfo{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			info := &fnInfo{id: analysis.FuncID(fn), body: fd.Body}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if pmemRecord(pass.Info.Uses[n.Sel]) {
						info.emits = true
					}
				case *ast.CallExpr:
					if callee := analysis.CalleeFunc(pass.Info, n); callee != nil {
						if vfsInterfaceMethod(callee) {
							info.emits = true
						} else if id := analysis.FuncID(callee); id != "" {
							info.callees = append(info.callees, id)
						}
					}
				}
				return true
			})
			fns = append(fns, info)
			if info.id != "" {
				local[info.id] = info
			}
		}
	}
	emitsFact := func(id string) bool {
		if f, ok := local[id]; ok {
			return f.emits
		}
		_, ok := pass.Facts.Import(name, "emits:"+id)
		return ok
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if fn.emits {
				continue
			}
			for _, c := range fn.callees {
				if emitsFact(c) {
					fn.emits = true
					changed = true
					break
				}
			}
		}
	}
	for _, fn := range fns {
		if fn.emits && fn.id != "" {
			pass.Facts.Export(name, "emits:"+fn.id, true)
		}
	}

	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		wallclock := analysis.FileFlag(f, FlagWallclock)
		concurrent := analysis.FileFlag(f, FlagConcurrent)

		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !concurrent {
					pass.Reportf(n.Pos(),
						"goroutine spawn in deterministic package %s; flag the file // +%s if this concurrent mode is by design",
						pass.Pkg.Path(), FlagConcurrent)
				}
			case *ast.CallExpr:
				callee := analysis.CalleeFunc(pass.Info, n)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				switch callee.Pkg().Path() {
				case "time":
					if !wallclock && (callee.Name() == "Now" || callee.Name() == "Since") {
						pass.Reportf(n.Pos(),
							"wall-clock time.%s in deterministic package %s; use the sim clock or flag the file // +%s",
							callee.Name(), pass.Pkg.Path(), FlagWallclock)
					}
				case "math/rand", "math/rand/v2":
					if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() == nil {
						switch callee.Name() {
						case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
						default:
							pass.Reportf(n.Pos(),
								"globally seeded %s.%s in deterministic package; draw from a seeded *rand.Rand (sim.RNG)",
								callee.Pkg().Path(), callee.Name())
						}
					}
				}
			case *ast.RangeStmt:
				checkMapRange(pass, f, n, emitsFact)
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags order-sensitive map iteration.
func checkMapRange(pass *analysis.Pass, f *ast.File, rng *ast.RangeStmt, emitsFact func(string) bool) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if analysis.RangeDirective(pass.Fset, f, rng.Pos(), FlagUnordered) {
		return
	}

	// Does the body reach an event-emitting operation?
	emitted := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if emitted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := analysis.CalleeFunc(pass.Info, call); callee != nil {
			if vfsInterfaceMethod(callee) || emitsFact(analysis.FuncID(callee)) {
				emitted = true
			}
		}
		return true
	})
	if emitted {
		pass.Reportf(rng.Pos(),
			"map iteration emits persistence/I-O events in random order; iterate sorted keys or annotate // +%s if the body commutes",
			FlagUnordered)
		return
	}

	// Does the body append to a slice declared outside the range, with
	// no sort afterwards? (The waldb bug class: replay order leaks map
	// order.)
	for _, v := range outerAppends(pass, rng) {
		if !sortedLater(pass, f, rng, v) {
			pass.Reportf(rng.Pos(),
				"map iteration appends to %q in random order; sort it afterwards or annotate // +%s",
				v.Name(), FlagUnordered)
		}
	}
}

// outerAppends returns variables declared outside rng that the body
// grows with x = append(x, ...).
func outerAppends(pass *analysis.Pass, rng *ast.RangeStmt) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || fun.Name != "append" {
				continue
			}
			if _, isBuiltin := pass.Info.Uses[fun].(*types.Builtin); !isBuiltin {
				continue
			}
			lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := pass.Info.Uses[lhs].(*types.Var)
			if !ok && pass.Info.Defs[lhs] != nil {
				v, ok = pass.Info.Defs[lhs].(*types.Var)
			}
			if !ok || v == nil || seen[v] {
				continue
			}
			// Declared outside the range statement?
			if v.Pos() >= rng.Pos() && v.Pos() <= rng.End() {
				continue
			}
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out
}

// sortedLater reports whether v is passed to a sort/slices call after
// the range statement, anywhere later in the same file.
func sortedLater(pass *analysis.Pass, f *ast.File, rng *ast.RangeStmt, v *types.Var) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		callee := analysis.CalleeFunc(pass.Info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch callee.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.Info.Uses[id] == v {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}

// pmemRecord reports whether obj is one of package pmem's records of
// order: the method that records a persistence event, or the read cursor
// a charged read compares and moves. Only pmem itself can name them, so
// they seed the "emits" facts there.
func pmemRecord(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/pmem") {
		return false
	}
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Name() == "event"
	case *types.Var:
		return obj.IsField() && obj.Name() == "lastReadEnd"
	}
	return false
}

// vfsInterfaceMethod reports whether fn is a method of one of package
// vfs's interfaces: a call on whatever file system or file stands behind
// it, whose relative order is observable in the event trace or on the
// medium.
func vfsInterfaceMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/vfs") {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}
