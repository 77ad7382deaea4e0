package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// Annotation grammar (documented in DESIGN.md, "Static analysis"):
//
//	// +lockrank:<name>              on a sync.Mutex/RWMutex struct field
//	// +lockrank:order a < b < c     declares hierarchy edges (outer first)
//	// +determinism:wallclock        file flag: wall-clock time allowed
//	// +determinism:concurrent       file flag: goroutine spawns allowed
//	// +determinism:unordered        on a map-range stmt with a commutative body
//	//lint:ignore splitfs-<name> reason   suppresses one diagnostic
//
// Directives attach to the declaration their comment group documents
// (Doc comment or trailing line comment); file flags may appear in any
// comment of the file. Suppressions cover the line they trail, or the
// line immediately below a comment of their own.

// Directives extracts "+" directive lines from the given comment
// groups, with the leading "+" stripped: "// +lockrank:shard" yields
// "lockrank:shard".
func Directives(groups ...*ast.CommentGroup) []string {
	var out []string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if strings.HasPrefix(text, "+") {
				out = append(out, strings.TrimPrefix(text, "+"))
			}
		}
	}
	return out
}

// FileFlag reports whether any comment in f is the file-level directive
// "// +<flag>" (e.g. flag "determinism:wallclock").
func FileFlag(f *ast.File, flag string) bool {
	return slices.Contains(Directives(f.Comments...), flag)
}

// RangeDirective reports whether a statement at pos is annotated with
// directive d: the directive must appear in a comment on the statement's
// own line or the line immediately above it.
func RangeDirective(fset *token.FileSet, file *ast.File, pos token.Pos, d string) bool {
	line := fset.Position(pos).Line
	for _, g := range file.Comments {
		for _, c := range g.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "+") || strings.TrimPrefix(text, "+") != d {
				continue
			}
			cl := fset.Position(c.Pos()).Line
			if cl == line || cl == line-1 {
				return true
			}
		}
	}
	return false
}

// Suppression is one //lint:ignore comment.
type Suppression struct {
	Pos      token.Position // position of the comment
	Line     int            // line the suppression covers
	Analyzer string         // bare analyzer name (no "splitfs-" prefix)
	Reason   string
}

const suppressPrefix = "lint:ignore "

// Suppressions extracts every //lint:ignore comment from a file. A
// trailing comment covers its own line; a comment alone on a line
// covers the next line. Malformed suppressions (no "splitfs-" check
// name or no reason) are returned with Analyzer == "" so the driver
// can flag them instead of silently ignoring a typo.
func Suppressions(fset *token.FileSet, f *ast.File) []Suppression {
	// Lines that hold non-comment tokens: a comment sharing such a line
	// is trailing and covers that same line.
	codeLines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.Comment); ok {
			return false
		}
		if _, ok := n.(*ast.CommentGroup); ok {
			return false
		}
		codeLines[fset.Position(n.Pos()).Line] = true
		return true
	})

	var out []Suppression
	for _, g := range f.Comments {
		for _, c := range g.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, suppressPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, suppressPrefix))
			check, reason, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			s := Suppression{Pos: pos, Line: pos.Line}
			if !codeLines[pos.Line] {
				s.Line = pos.Line + 1
			}
			if name, ok := strings.CutPrefix(check, "splitfs-"); ok && strings.TrimSpace(reason) != "" {
				s.Analyzer = name
				s.Reason = strings.TrimSpace(reason)
			}
			out = append(out, s)
		}
	}
	return out
}
