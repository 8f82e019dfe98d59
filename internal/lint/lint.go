// Package lint is the repo's own static-analysis gate: a
// dependency-free analyzer framework (stdlib go/parser + go/ast +
// go/token + go/types only, no golang.org/x/tools) plus a suite of
// project-invariant analyzers that keep the reproduction's recorded
// bytes deterministic. The claims — byte-identical datasets across
// resume/metrics runs, seeded synthetic-web generation — rest on
// invariants documented in DESIGN.md §7–9; this package enforces the
// ones no test or `go vet` already holds.
//
// LoadModule parses and type-checks the module from source, resolving
// module-internal imports recursively and stdlib imports through the
// host toolchain's compiled export data. Analyzers reach the syntax
// and the go/types view (Uses, Defs, Types, Selections) through Pass.
// A package that fails to parse or type-check reports its "load"
// diagnostics and is otherwise skipped, so one broken package never
// hides findings in the rest.
//
//   - determinism: no wall-clock or unseeded randomness in the
//     deterministic packages (webgen, analysis, labeler, inclusion,
//     payload, content, wsproto, faultnet, fabric/wire, colstore), and
//     no up-front rand.NewSource seeding on the per-page paths.
//   - maporder: no map-iteration order reaching appends or encoder
//     output without an intervening sort.
//   - observeonly: packages other than obs/cmd/examples may record
//     metrics but never read them back (instrumentation must not
//     influence control flow).
//   - spanclose: every obs.StartSpan is paired with an End in the same
//     function, directly or via defer.
//   - deadline: blocking reads on net.Conn and on ReadMessage-style
//     codecs in the serving packages must be preceded by
//     SetReadDeadline/SetDeadline.
//   - lockguard: fields annotated "guarded by <mu>" are only accessed
//     with that mutex held in the same function. (Copied mutexes are
//     `go vet`'s copylocks check.)
//   - unusedapi: every package-level declaration under internal/ has a
//     use from a non-test file of the module (bench, cmd and examples
//     included); interface methods are exempt. Pass.Module is the
//     whole module, so linting a subset sees every caller.
//
// Intentional violations are suppressed in place with a pragma that
// must name the analyzer and carry a written justification:
//
//	//lint:allow <analyzer> <reason...>
//
// The pragma suppresses matching diagnostics on its own line and on
// the line immediately below it, so it works both as a trailing
// comment and as a standalone comment above the offending line. When
// the pragma sits in a declaration's doc comment it covers the whole
// declaration. Several pragmas may share one comment (each starts at
// its own lint:allow marker), and pragmas inside /* block */ comments
// are honored line by line, covering through the line after the
// closing delimiter. A pragma without a reason, or naming an
// unknown analyzer, is itself a diagnostic (analyzer "pragma") and
// suppresses nothing.
//
// Only non-test files are linted: tests legitimately read metric
// values, use wall-clock timeouts, and inspect counters after
// goroutines have joined.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one lint pass. Run is invoked once per package and
// reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow pragmas.
	Name string
	// Doc is a one-line description of the invariant it guards.
	Doc string
	// Run inspects one package.
	Run func(p *Pass)
}

// Pass carries one (package, analyzer) unit of work.
type Pass struct {
	// Pkg is the package under analysis; it always type-checked.
	Pkg *Package
	// Module is every package loaded with Pkg, linted or not, so an
	// analyzer that counts uses across packages sees every caller even
	// when only a subset of the module is linted.
	Module []*Package

	analyzer string
	out      *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.out = append(*p.out, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned for file:line:col output.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional grep-able form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Result is the outcome of one Run call: the surviving diagnostics
// plus, per analyzer, how many findings allow pragmas suppressed —
// the -json schema exposes both so suppression debt stays visible.
type Result struct {
	Diagnostics []Diagnostic
	// Suppressed maps every registered analyzer name to its
	// pragma-suppressed finding count (zero included, so the JSON
	// schema is stable across runs).
	Suppressed map[string]int
}

// pragmaMarker introduces a suppression comment: //lint:allow <analyzer> <reason>.
const pragmaMarker = "lint:allow"

// allowPragma is one parsed suppression covering the closed line range
// [fromLine, toLine].
type allowPragma struct {
	fromLine int
	toLine   int
	analyzer string
	reason   string
}

// declRanges maps each doc comment group of f to the line span of the
// declaration it documents, so a pragma in a doc comment can cover the
// whole declaration.
func declRanges(fset *token.FileSet, f *ast.File) map[*ast.CommentGroup][2]int {
	out := map[*ast.CommentGroup][2]int{}
	span := func(doc *ast.CommentGroup, n ast.Node) {
		if doc != nil {
			out[doc] = [2]int{fset.Position(n.Pos()).Line, fset.Position(n.End()).Line}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			span(d.Doc, d)
		case *ast.GenDecl:
			span(d.Doc, d)
			for _, sp := range d.Specs {
				switch s := sp.(type) {
				case *ast.ValueSpec:
					span(s.Doc, s)
				case *ast.TypeSpec:
					span(s.Doc, s)
				}
			}
		}
	}
	return out
}

// pragmaLine is one comment line that may carry pragmas: its text with
// comment markers stripped, the source line it sits on, and the last
// line its pragmas cover by default (cover).
type pragmaLine struct {
	text  string
	line  int
	col   int
	cover int
}

// pragmaLines splits one comment into candidate lines. A // comment is
// a single line covering itself and the line below; a /* */ comment
// contributes each interior line, with leading asterisk decoration
// trimmed so doc-block styles work, and every line's coverage extends
// one line past the whole comment — otherwise a pragma on an inner
// line could never reach the code after the closing delimiter.
func pragmaLines(fset *token.FileSet, c *ast.Comment) []pragmaLine {
	pos := fset.Position(c.Pos())
	if strings.HasPrefix(c.Text, "//") {
		return []pragmaLine{{text: strings.TrimSpace(c.Text[2:]), line: pos.Line, col: pos.Column, cover: pos.Line + 1}}
	}
	end := fset.Position(c.End()).Line
	body := strings.TrimSuffix(strings.TrimPrefix(c.Text, "/*"), "*/")
	var out []pragmaLine
	for i, raw := range strings.Split(body, "\n") {
		text := strings.TrimSpace(raw)
		text = strings.TrimSpace(strings.TrimPrefix(text, "*"))
		out = append(out, pragmaLine{text: text, line: pos.Line + i, col: pos.Column, cover: end + 1})
	}
	return out
}

// filePragmas extracts the allow pragmas of one file. Malformed
// pragmas (missing reason, which would defeat the "every suppression
// is justified" policy) are returned as diagnostics and do not
// suppress anything.
//
// A comment line participates only if it begins with the lint:allow
// marker — mentions of the pragma syntax in prose (which start with
// "//lint:allow", not "lint:allow") stay inert. Within a
// participating line every further lint:allow marker starts another
// pragma, so several suppressions can share a line.
func filePragmas(fset *token.FileSet, f *ast.File, known map[string]bool) ([]allowPragma, []Diagnostic) {
	var allows []allowPragma
	var bad []Diagnostic
	decls := declRanges(fset, f)
	for _, cg := range f.Comments {
		declSpan, isDoc := decls[cg]
		for _, c := range cg.List {
			for _, pl := range pragmaLines(fset, c) {
				if !strings.HasPrefix(pl.text, pragmaMarker) {
					continue
				}
				for _, seg := range pragmaSegments(pl.text) {
					a, d := parsePragma(seg, pl, isDoc, declSpan)
					if d != nil {
						bad = append(bad, Diagnostic{
							File: fset.Position(c.Pos()).Filename,
							Line: pl.line, Col: pl.col,
							Analyzer: "pragma", Message: *d,
						})
						continue
					}
					if !known[a.analyzer] {
						bad = append(bad, Diagnostic{
							File: fset.Position(c.Pos()).Filename,
							Line: pl.line, Col: pl.col,
							Analyzer: "pragma",
							Message:  fmt.Sprintf("lint:allow pragma names unknown analyzer %q", a.analyzer),
						})
						continue
					}
					allows = append(allows, a)
				}
			}
		}
	}
	return allows, bad
}

// pragmaSegments splits a participating comment line into one segment
// per lint:allow marker, trimming the "//" that introduces a trailing
// sibling pragma.
func pragmaSegments(text string) []string {
	var segs []string
	rest := text
	for {
		rest = strings.TrimPrefix(rest, pragmaMarker)
		next := strings.Index(rest, pragmaMarker)
		if next < 0 {
			segs = append(segs, strings.TrimSpace(rest))
			return segs
		}
		seg := strings.TrimSpace(rest[:next])
		seg = strings.TrimSpace(strings.TrimSuffix(seg, "//"))
		segs = append(segs, seg)
		rest = rest[next:]
	}
}

// parsePragma validates one segment ("<analyzer> <reason...>") and
// builds its pragma. Doc-comment pragmas cover the whole declaration;
// others cover their own line through the line after their comment.
func parsePragma(seg string, pl pragmaLine, isDoc bool, declSpan [2]int) (allowPragma, *string) {
	fields := strings.Fields(seg)
	fail := func(msg string) (allowPragma, *string) { return allowPragma{}, &msg }
	if len(fields) == 0 {
		return fail("lint:allow pragma names no analyzer")
	}
	if len(fields) < 2 {
		return fail(fmt.Sprintf("lint:allow %s pragma carries no justification; a reason is required", fields[0]))
	}
	a := allowPragma{
		fromLine: pl.line,
		toLine:   pl.cover,
		analyzer: fields[0],
		reason:   strings.Join(fields[1:], " "),
	}
	if isDoc {
		a.fromLine = min(a.fromLine, declSpan[0])
		a.toLine = max(a.toLine, declSpan[1])
	}
	return a, nil
}

// suppressed reports whether d is covered by an allow pragma: same
// analyzer, diagnostic line inside the pragma's range.
func suppressed(d Diagnostic, allows []allowPragma) bool {
	for _, a := range allows {
		if a.analyzer == d.Analyzer && a.fromLine <= d.Line && d.Line <= a.toLine {
			return true
		}
	}
	return false
}

// Run runs every analyzer over every package of pkgs, a subset of
// module (or module itself), applies pragma suppression, and returns
// the surviving diagnostics sorted by position plus per-analyzer
// suppression counts. Malformed pragmas surface as "pragma"
// diagnostics. A package that failed to parse or type-check
// contributes its "load" diagnostics and nothing else (neither kind is
// suppressible).
func Run(module, pkgs []*Package, analyzers []*Analyzer) Result {
	known := map[string]bool{}
	res := Result{Suppressed: map[string]int{}}
	for _, a := range analyzers {
		known[a.Name] = true
		res.Suppressed[a.Name] = 0
	}
	diags := []Diagnostic{}
	for _, pkg := range pkgs {
		diags = append(diags, pkg.Errs...)
		if !pkg.Typed() {
			continue
		}
		var allows []allowPragma
		for _, f := range pkg.Files {
			ps, bad := filePragmas(pkg.Fset, f, known)
			allows = append(allows, ps...)
			diags = append(diags, bad...)
		}
		var found []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, Module: module, analyzer: a.Name, out: &found}
			a.Run(pass)
		}
		for _, d := range found {
			if suppressed(d, allows) {
				res.Suppressed[d.Analyzer]++
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	res.Diagnostics = diags
	return res
}

// Suite returns the repo's analyzer suite, in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer(),
		maporderAnalyzer(),
		observeonlyAnalyzer(),
		spancloseAnalyzer(),
		deadlineAnalyzer(),
		lockguardAnalyzer(),
		unusedapiAnalyzer(),
	}
}
