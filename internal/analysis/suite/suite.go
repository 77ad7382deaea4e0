// Package suite registers the repository's four analyzers in the order
// cmd/splitfs-vet runs them.
package suite

import (
	"splitfs/internal/analysis"
	"splitfs/internal/analysis/determinism"
	"splitfs/internal/analysis/lockorder"
	"splitfs/internal/analysis/persist"
	"splitfs/internal/analysis/wireerr"
)

// All is the splitfs-vet suite.
var All = []*analysis.Analyzer{
	lockorder.Analyzer,
	persist.Analyzer,
	determinism.Analyzer,
	wireerr.Analyzer,
}
