// splitfs-vet runs the repository's static-analysis suite (lockorder,
// persist, determinism, wireerr, evsource — see DESIGN.md, "Static
// analysis") in either of two modes.
//
// Standalone, over a package pattern:
//
//	go run ./cmd/splitfs-vet ./...
//
// loads the matched packages in dependency order, runs standard `go
// vet` as a subprocess (one analysis step in CI covers both), then the
// suite, and prints surviving diagnostics. -suppressions=error
// additionally inventories every //lint:ignore comment and fails if
// any exist — the tree has none, and CI's analysis job runs with it so
// that it stays that way.
//
// As a vettool, driven per package by cmd/go:
//
//	go build -o /tmp/splitfs-vet ./cmd/splitfs-vet
//	go vet -vettool=/tmp/splitfs-vet ./...
//
// cmd/go first invokes the tool with -flags (it must print a JSON
// array of its flags), then once per package with a vet.cfg path:
// sources are parsed from GoFiles, imports resolve through
// ImportMap/PackageFile export data, cross-package facts arrive via
// the PackageVetx files of dependencies and leave via VetxOutput.
// Diagnostics go to stderr with a nonzero exit; VetxOnly packages get
// facts only.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"

	"splitfs/internal/analysis"
	"splitfs/internal/analysis/suite"
)

func main() {
	// The cmd/go tool-ID handshake: print a version line and exit. The
	// buildID is a hash of this binary, so go's vet result cache
	// invalidates whenever the tool itself changes.
	for _, arg := range os.Args[1:] {
		if strings.HasPrefix(arg, "-V") {
			fmt.Printf("splitfs-vet version devel buildID=%s\n", selfID())
			return
		}
	}
	// The vettool flag handshake: print our flag set as JSON.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println(`[{"Name":"suppressions","Bool":false,"Usage":"ignore|error: treat //lint:ignore comments as errors"}]`)
		return
	}

	suppressions := flag.String("suppressions", "ignore",
		"ignore|error: error inventories every //lint:ignore comment and fails if any exist")
	flag.Parse()
	args := flag.Args()

	// A single argument naming an existing *.cfg file is a vet.cfg from
	// cmd/go: run in vettool mode.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		if _, err := os.Stat(args[0]); err == nil {
			os.Exit(vettool(args[0]))
		}
	}
	os.Exit(standalone(args, *suppressions == "error"))
}

// selfID hashes the running binary for the -V=full handshake.
func selfID() string {
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			_, err = io.Copy(h, f)
			f.Close()
			if err == nil {
				return fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
		}
	}
	return "unknown"
}

// standalone analyzes whole package patterns in one process.
func standalone(patterns []string, suppressionsAreErrors bool) int {
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

	loader := analysis.NewLoader("")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitfs-vet:", err)
		return 1
	}
	res, err := analysis.Run(pkgs, suite.All, nil)
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

// vetConfig mirrors the JSON cmd/go writes for each vetted package.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vettool analyzes the single package a vet.cfg describes.
func vettool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitfs-vet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "splitfs-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return typecheckFailed(cfg, err)
		}
		files = append(files, f)
	}

	// Imports resolve exactly as the compiler saw them: through
	// ImportMap to the export data listed in PackageFile.
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, compiler, lookup)}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return typecheckFailed(cfg, err)
	}

	facts := analysis.NewFactStore()
	for _, vetx := range cfg.PackageVetx {
		r, err := os.Open(vetx)
		if err != nil {
			continue // dep analyzed by a different tool: no facts, not fatal
		}
		err = facts.MergeFrom(r)
		r.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitfs-vet: reading facts %s: %v\n", vetx, err)
			return 1
		}
	}

	pkg := &analysis.Package{
		PkgPath: cfg.ImportPath,
		Dir:     cfg.Dir,
		Files:   files,
		Fset:    fset,
		Types:   tpkg,
		Info:    info,
	}
	res, err := analysis.Run([]*analysis.Package{pkg}, suite.All, facts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitfs-vet:", err)
		return 1
	}

	if cfg.VetxOutput != "" {
		out, err := os.Create(cfg.VetxOutput)
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitfs-vet:", err)
			return 1
		}
		err = facts.EncodeTo(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitfs-vet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	code := 0
	for _, d := range res.Diags {
		fmt.Fprintln(os.Stderr, d)
		code = 1
	}
	return code
}

// typecheckFailed honors SucceedOnTypecheckFailure: cmd/go sets it when
// the package already failed to build, so vet should stay quiet.
func typecheckFailed(cfg vetConfig, err error) int {
	if cfg.SucceedOnTypecheckFailure {
		return 0
	}
	fmt.Fprintf(os.Stderr, "splitfs-vet: type-checking %s: %v\n", cfg.ImportPath, err)
	return 1
}
