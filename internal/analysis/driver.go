package analysis

import "fmt"

// Result is the outcome of a driver run.
type Result struct {
	// Diags are the surviving diagnostics, position-sorted.
	Diags []Diagnostic
	// Suppressed are diagnostics a //lint:ignore comment absorbed.
	Suppressed []Diagnostic
	// Suppressions inventories every //lint:ignore comment seen,
	// malformed ones included (Analyzer == "").
	Suppressions []Suppression
}

// Run executes analyzers over pkgs — which must be in dependency order,
// as Loader.Load returns them — sharing one fact store, then applies
// suppression comments. FactsOnly packages contribute facts only: their
// diagnostics are dropped and their suppressions are not inventoried.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	facts := NewFactStore()
	var res Result
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Facts:    facts,
				diags:    &pkgDiags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
		if !pkg.FactsOnly {
			diags = append(diags, pkgDiags...)
		}
	}

	// Collect suppressions from every reported file.
	type supKey struct {
		file string
		line int
		name string
	}
	sups := map[supKey]bool{}
	for _, pkg := range pkgs {
		if pkg.FactsOnly {
			continue
		}
		for _, f := range pkg.Files {
			for _, s := range Suppressions(pkg.Fset, f) {
				res.Suppressions = append(res.Suppressions, s)
				if s.Analyzer == "" {
					diags = append(diags, Diagnostic{
						Analyzer: "suppress",
						Pos:      s.Pos,
						Message:  `malformed suppression: want "//lint:ignore splitfs-<analyzer> reason"`,
					})
					continue
				}
				sups[supKey{s.Pos.Filename, s.Line, s.Analyzer}] = true
			}
		}
	}
	for _, d := range diags {
		if sups[supKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			res.Suppressed = append(res.Suppressed, d)
			continue
		}
		res.Diags = append(res.Diags, d)
	}
	SortDiagnostics(res.Diags)
	SortDiagnostics(res.Suppressed)
	return &res, nil
}
