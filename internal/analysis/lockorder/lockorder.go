// Package lockorder enforces the DESIGN.md lock hierarchy. Mutex
// fields are ranked with `// +lockrank:<name>` annotations and the
// hierarchy itself is declared as chains, outermost first:
//
//	// +lockrank:order wmu < ofile < ext4fs < inode < shard
//
// Chains merge across packages into one partial order. The analyzer
// flags a function that acquires a lock whose rank is declared outer to
// one it already holds — directly, or by calling (while holding a lock)
// a function whose transitive acquisitions include an outer rank. A
// `defer mu.Unlock()` keeps the lock held to the end of the function;
// unannotated mutexes are outside the hierarchy and ignored.
//
// The analysis is linear per function body: statements are visited in
// source order without branch sensitivity, and function-literal bodies
// are skipped (closures run on schedules the caller controls). This
// under-approximates held sets on early-return paths but reports no
// false positives on the repository's lock idioms; genuinely safe
// exceptions carry a //lint:ignore splitfs-lockorder suppression.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"splitfs/internal/analysis"
)

const name = "lockorder"

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "check +lockrank-annotated mutex acquisitions against the declared " +
		"lock hierarchy (DESIGN.md), including calls that re-enter outer ranks",
	Run: run,
}

// order is the merged rank DAG: adjacency outer → inner.
type order map[string][]string

// reaches reports whether inner is reachable from outer (outer strictly
// precedes inner in the hierarchy).
func (o order) reaches(outer, inner string) bool {
	if outer == inner {
		return false
	}
	seen := map[string]bool{outer: true}
	stack := []string{outer}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range o[n] {
			if next == inner {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// event is one lock-relevant operation in a function body, in source
// order.
type event struct {
	pos      token.Pos
	rank     string // lock/unlock events
	unlock   bool
	deferred bool
	callee   string // call events: FuncID
}

func run(pass *analysis.Pass) error {
	ranks := map[string]string{} // FieldID -> rank name
	// The order fact is one map shared by the whole run: edges added
	// here are visible to every package analyzed later.
	ord := order{}
	if v, ok := pass.Facts.Import(name, "order"); ok {
		ord = order(v.(map[string][]string))
	} else {
		pass.Facts.Export(name, "order", map[string][]string(ord))
	}

	// Phase 1: order chains and field ranks declared by this package.
	for _, f := range pass.Files {
		for _, g := range f.Comments {
			for _, d := range analysis.Directives(g) {
				chain, ok := strings.CutPrefix(d, "lockrank:order ")
				if !ok {
					continue
				}
				var names []string
				for _, n := range strings.Split(chain, "<") {
					names = append(names, strings.TrimSpace(n))
				}
				for i := 0; i+1 < len(names); i++ {
					a, b := names[i], names[i+1]
					if a == "" || b == "" {
						pass.Reportf(g.Pos(), "malformed lockrank:order chain %q", chain)
						continue
					}
					if ord.reaches(b, a) || a == b {
						pass.Reportf(g.Pos(), "lockrank:order %q < %q conflicts with the already-declared hierarchy", a, b)
						continue
					}
					ord[a] = append(ord[a], b)
				}
			}
		}
		collectFieldRanks(pass, f, ranks)
	}
	for id, r := range ranks {
		pass.Facts.Export(name, "field:"+id, r)
	}
	rankOf := func(id string) string {
		if r, ok := ranks[id]; ok {
			return r
		}
		if v, ok := pass.Facts.Import(name, "field:"+id); ok {
			return v.(string)
		}
		return ""
	}

	// Phase 2: per-function event streams.
	type fnInfo struct {
		decl   *ast.FuncDecl
		id     string
		events []event
	}
	var fns []*fnInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			info := &fnInfo{decl: fd, id: analysis.FuncID(fn)}
			info.events = collectEvents(pass, fd.Body, rankOf)
			fns = append(fns, info)
		}
	}

	// Phase 3: transitive acquisition summaries. Same-package calls
	// iterate to a fixpoint; cross-package callees resolve from facts.
	local := map[string]*fnInfo{}
	for _, fn := range fns {
		if fn.id != "" {
			local[fn.id] = fn
		}
	}
	acq := map[string]map[string]bool{}
	importedAcq := func(id string) []string {
		if v, ok := pass.Facts.Import(name, "acq:"+id); ok {
			return v.([]string)
		}
		return nil
	}
	for _, fn := range fns {
		set := map[string]bool{}
		for _, ev := range fn.events {
			if ev.rank != "" && !ev.unlock {
				set[ev.rank] = true
			}
		}
		acq[fn.id] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			set := acq[fn.id]
			for _, ev := range fn.events {
				if ev.callee == "" {
					continue
				}
				if callee, ok := local[ev.callee]; ok {
					for r := range acq[callee.id] {
						if !set[r] {
							set[r] = true
							changed = true
						}
					}
				} else {
					for _, r := range importedAcq(ev.callee) {
						if !set[r] {
							set[r] = true
							changed = true
						}
					}
				}
			}
		}
	}
	for id, set := range acq {
		if id == "" || len(set) == 0 {
			continue
		}
		var rs []string
		for r := range set {
			rs = append(rs, r)
		}
		sort.Strings(rs)
		pass.Facts.Export(name, "acq:"+id, rs)
	}

	// Phase 4: the linear held-set check.
	for _, fn := range fns {
		held := map[string]int{}
		heldList := func() []string {
			var hs []string
			for r, n := range held {
				if n > 0 {
					hs = append(hs, r)
				}
			}
			sort.Strings(hs)
			return hs
		}
		for _, ev := range fn.events {
			switch {
			case ev.rank != "" && ev.unlock:
				if ev.deferred {
					continue // held until return; keep checking the body against it
				}
				if held[ev.rank] > 0 {
					held[ev.rank]--
				}
			case ev.rank != "":
				for _, h := range heldList() {
					if ord.reaches(ev.rank, h) {
						pass.Reportf(ev.pos,
							"acquires %q while holding %q: %q is outer to %q in the declared lock order",
							ev.rank, h, ev.rank, h)
					}
				}
				held[ev.rank]++
			case ev.callee != "" && !ev.deferred:
				hs := heldList()
				if len(hs) == 0 {
					continue
				}
				var callee []string
				if lf, ok := local[ev.callee]; ok {
					for r := range acq[lf.id] {
						callee = append(callee, r)
					}
					sort.Strings(callee)
				} else {
					callee = importedAcq(ev.callee)
				}
				for _, r := range callee {
					for _, h := range hs {
						if ord.reaches(r, h) {
							pass.Reportf(ev.pos,
								"calls %s, which may acquire %q, while holding %q: %q is outer to %q in the declared lock order",
								ev.callee, r, h, r, h)
						}
					}
				}
			}
		}
	}
	return nil
}

// collectFieldRanks records +lockrank annotations on sync.Mutex/RWMutex
// struct fields.
func collectFieldRanks(pass *analysis.Pass, f *ast.File, ranks map[string]string) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				rank := ""
				for _, d := range analysis.Directives(field.Doc, field.Comment) {
					if name, ok := strings.CutPrefix(d, "lockrank:"); ok && !strings.HasPrefix(name, "order") {
						rank = strings.TrimSpace(name)
					}
				}
				if rank == "" {
					continue
				}
				for _, name := range field.Names {
					obj, _ := pass.Info.Defs[name].(*types.Var)
					if obj == nil {
						continue
					}
					if !isMutexType(obj.Type()) {
						pass.Reportf(field.Pos(), "+lockrank:%s on non-mutex field %s", rank, name.Name)
						continue
					}
					tobj, _ := pass.Info.Defs[ts.Name].(*types.TypeName)
					if tobj == nil {
						continue
					}
					id := analysis.FieldID(tobj.Type(), obj)
					if id != "" {
						ranks[id] = rank
					}
				}
			}
		}
	}
}

func isMutexType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

var lockMethods = map[string]bool{"Lock": false, "RLock": false, "Unlock": true, "RUnlock": true}

// collectEvents walks a function body in source order, emitting lock,
// unlock, and call events. Function literals are skipped.
func collectEvents(pass *analysis.Pass, body *ast.BlockStmt, rankOf func(string) string) []event {
	var events []event
	deferredCalls := map[*ast.CallExpr]bool{}
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			deferredCalls[n.Call] = true
			return true
		case *ast.GoStmt:
			// The spawned goroutine has its own stack: its acquisitions
			// happen against an empty held set, not the spawner's.
			goCalls[n.Call] = true
			return true
		case *ast.CallExpr:
			if goCalls[n] {
				return true
			}
			ev := classifyCall(pass, n, rankOf)
			if ev != nil {
				ev.deferred = deferredCalls[n]
				events = append(events, *ev)
			}
			return true
		}
		return true
	})
	return events
}

// classifyCall turns a call into a lock/unlock event (for ranked
// mutexes) or a call event (for named functions and methods).
func classifyCall(pass *analysis.Pass, call *ast.CallExpr, rankOf func(string) string) *event {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		// Plain identifier: a package-level function call.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if fn, ok := pass.Info.Uses[id].(*types.Func); ok {
				return &event{pos: call.Pos(), callee: analysis.FuncID(fn)}
			}
		}
		return nil
	}
	if unlock, isLockOp := lockMethods[sel.Sel.Name]; isLockOp {
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if s := pass.Info.Selections[inner]; s != nil {
				if field, ok := s.Obj().(*types.Var); ok && isMutexType(field.Type()) {
					if rank := rankOf(analysis.FieldID(s.Recv(), field)); rank != "" {
						return &event{pos: call.Pos(), rank: rank, unlock: unlock}
					}
				}
			}
		}
	}
	if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok {
		return &event{pos: call.Pos(), callee: analysis.FuncID(fn)}
	}
	return nil
}
