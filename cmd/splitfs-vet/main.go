// splitfs-vet runs the repository's static-analysis suite (lockorder,
// determinism, wireerr — see DESIGN.md, "Static analysis")
// over a package pattern:
//
//	go run ./cmd/splitfs-vet [-suppressions=error] [patterns]
//
// It runs standard `go vet` as a subprocess (one analysis step in CI
// covers both), loads the matched packages with their tests and their
// module dependencies, runs the suite, and prints the matched
// packages' surviving diagnostics; the dependencies contribute facts
// only, so a narrow pattern reports what ./... reports for it.
// -suppressions=error additionally inventories every //lint:ignore
// comment, test files included, and fails if any exist — the tree has
// none, and CI's analysis job runs with it so that it stays that way.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"splitfs/internal/analysis"
	"splitfs/internal/analysis/suite"
)

func main() {
	suppressions := flag.String("suppressions", "ignore",
		"ignore|error: error inventories every //lint:ignore comment and fails if any exist")
	flag.Parse()
	os.Exit(run(flag.Args(), *suppressions == "error"))
}

// run analyzes whole package patterns in one process.
func run(patterns []string, suppressionsAreErrors bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// Fold the standard vet pass in: one CI step, one command.
	govet := exec.Command("go", append([]string{"vet"}, patterns...)...)
	govet.Stdout = os.Stdout
	govet.Stderr = os.Stderr
	code := 0
	if err := govet.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "splitfs-vet: standard go vet failed")
		code = 1
	}

	pkgs, err := analysis.NewLoader("").Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitfs-vet:", err)
		return 1
	}
	res, err := analysis.Run(pkgs, suite.All)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitfs-vet:", err)
		return 1
	}
	for _, d := range res.Diags {
		fmt.Fprintln(os.Stderr, d)
		code = 1
	}
	if suppressionsAreErrors && len(res.Suppressions) > 0 {
		fmt.Fprintf(os.Stderr, "splitfs-vet: %d active suppression(s):\n", len(res.Suppressions))
		for _, s := range res.Suppressions {
			name := s.Analyzer
			if name == "" {
				name = "(malformed)"
			}
			fmt.Fprintf(os.Stderr, "  %s: splitfs-%s: %s\n", s.Pos, name, s.Reason)
		}
		code = 1
	}
	return code
}
