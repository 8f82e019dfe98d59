package lint

// Golden fixture tests: each analyzer runs over testdata fixtures whose
// expected diagnostics are embedded as // want "regex" comments
// (analysistest-style, hand-rolled on the standard library). Every
// diagnostic must match a want on its line and every want must be hit,
// so the fixtures simultaneously prove that seeded violations are
// caught and that //lint:allow pragmas are honored.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

var wantRe = regexp.MustCompile(`// want "(.*)"`)

// loadFixture parses every .go file in testdata/<dir> as one package
// with the given import path and type-checks it the way LoadModule
// does. Module-internal imports (repro/internal/obs) resolve to the
// enclosing module's packages.
func loadFixture(t *testing.T, dir, path string) *Package {
	t.Helper()
	full := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	pkg := &Package{Path: path, Dir: full, Fset: token.NewFileSet()}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.ToSlash(filepath.Join(full, e.Name()))
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		f, err := parser.ParseFile(pkg.Fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture: %v", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, name)
	}
	if len(pkg.Files) == 0 {
		t.Fatalf("fixture dir %s has no Go files", full)
	}
	pkg.Name = pkg.Files[0].Name.Name
	mod := modulePackages(t)
	typeCheck(pkg.Fset, append(mod[:len(mod):len(mod)], pkg))
	if !pkg.Typed() {
		t.Fatalf("type-check fixture %s: %v", dir, pkg.Errs)
	}
	return pkg
}

// fixtureWants extracts want expectations: file -> line -> regex.
func fixtureWants(t *testing.T, pkg *Package) map[string]map[int]*regexp.Regexp {
	t.Helper()
	wants := map[string]map[int]*regexp.Regexp{}
	for _, name := range pkg.Filenames {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		perLine := map[int]*regexp.Regexp{}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", name, i+1, m[1], err)
			}
			perLine[i+1] = re
		}
		wants[name] = perLine
	}
	return wants
}

// modulePackages loads the enclosing module once per test binary;
// TestRepoIsLintClean and every fixture share it.
var (
	moduleOnce sync.Once
	modulePkgs []*Package
	moduleErr  error
)

func modulePackages(t *testing.T) []*Package {
	t.Helper()
	moduleOnce.Do(func() {
		root, err := ModuleRoot(".")
		if err != nil {
			moduleErr = err
			return
		}
		modulePkgs, moduleErr = LoadModule(root)
	})
	if moduleErr != nil {
		t.Fatalf("LoadModule: %v", moduleErr)
	}
	return modulePkgs
}

// runFixture asserts an exact match between diagnostics and wants.
func runFixture(t *testing.T, dir, path string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, dir, path)
	wants := fixtureWants(t, pkg)
	diags := Run([]*Package{pkg}, analyzers).Diagnostics

	matched := map[string]map[int]bool{}
	for _, d := range diags {
		re := wants[d.File][d.Line]
		if re == nil {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s:%d: diagnostic %q does not match want %q", d.File, d.Line, d.Message, re)
			continue
		}
		if matched[d.File] == nil {
			matched[d.File] = map[int]bool{}
		}
		matched[d.File][d.Line] = true
	}
	for file, perLine := range wants {
		lines := make([]int, 0, len(perLine))
		for line := range perLine {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			if !matched[file][line] {
				t.Errorf("%s:%d: want %q matched no diagnostic", file, line, perLine[line])
			}
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, "determinism", "repro/internal/webgen", determinismAnalyzer())
}

// TestDeterminismScopedToDeterministicPackages re-lints the same
// fixture under a non-deterministic import path: nothing may fire.
func TestDeterminismScopedToDeterministicPackages(t *testing.T) {
	pkg := loadFixture(t, "determinism", "repro/internal/dispatch")
	if diags := Run([]*Package{pkg}, []*Analyzer{determinismAnalyzer()}).Diagnostics; len(diags) != 0 {
		t.Fatalf("determinism fired outside the deterministic packages: %v", diags)
	}
}

// TestSeededRandFixture covers the seeded-content tier: wall-clock
// reads pass, global math/rand draws fail.
func TestSeededRandFixture(t *testing.T) {
	runFixture(t, "seededrand", "repro/internal/loadgen", determinismAnalyzer())
}

// TestSeededRandScoped re-lints the same fixture under a path in
// neither tier: nothing may fire.
func TestSeededRandScoped(t *testing.T) {
	pkg := loadFixture(t, "seededrand", "repro/internal/dispatch")
	if diags := Run([]*Package{pkg}, []*Analyzer{determinismAnalyzer()}).Diagnostics; len(diags) != 0 {
		t.Fatalf("determinism fired outside both tiers: %v", diags)
	}
}

// TestRandSourceFixture covers the on-demand-seed rule: rand.NewSource
// in a package that builds generators per page, site or connection.
// The fixture's perSite is the rule's historic catch.
func TestRandSourceFixture(t *testing.T) {
	runFixture(t, "randsource", "repro/internal/crawler", determinismAnalyzer())
}

// TestRandSourceScoped re-lints the same fixture under a path that
// seeds once per run: nothing may fire.
func TestRandSourceScoped(t *testing.T) {
	pkg := loadFixture(t, "randsource", "repro/internal/dispatch")
	if diags := Run([]*Package{pkg}, []*Analyzer{determinismAnalyzer()}).Diagnostics; len(diags) != 0 {
		t.Fatalf("on-demand-seed rule fired outside its packages: %v", diags)
	}
}

// TestMaporderFixture includes both historic maporder catches: Table 5
// items appended in map order, and an http.Header ranged into the
// handshake writer.
func TestMaporderFixture(t *testing.T) {
	runFixture(t, "maporder", "repro/internal/fix", maporderAnalyzer())
}

func TestObserveonlyFixture(t *testing.T) {
	runFixture(t, "observeonly", "repro/internal/fix", observeonlyAnalyzer())
}

// TestObserveonlyExemptsCmd re-lints the observeonly fixture under a
// cmd/ path, where reading metrics for display is the whole point.
func TestObserveonlyExemptsCmd(t *testing.T) {
	pkg := loadFixture(t, "observeonly", "repro/cmd/fix")
	if diags := Run([]*Package{pkg}, []*Analyzer{observeonlyAnalyzer()}).Diagnostics; len(diags) != 0 {
		t.Fatalf("observeonly fired in a cmd package: %v", diags)
	}
}

func TestSpancloseFixture(t *testing.T) {
	runFixture(t, "spanclose", "repro/internal/fix", spancloseAnalyzer())
}

func TestDeadlineFixture(t *testing.T) {
	runFixture(t, "deadline", "repro/internal/wsproto", deadlineAnalyzer())
}

// TestDeadlineScopedToServingPackages re-lints the deadline fixture
// under a non-serving path: nothing may fire.
func TestDeadlineScopedToServingPackages(t *testing.T) {
	pkg := loadFixture(t, "deadline", "repro/internal/analysis")
	if diags := Run([]*Package{pkg}, []*Analyzer{deadlineAnalyzer()}).Diagnostics; len(diags) != 0 {
		t.Fatalf("deadline fired outside the serving packages: %v", diags)
	}
}

func TestLockguardFixture(t *testing.T) {
	runFixture(t, "lockguard", "repro/internal/fix", lockguardAnalyzer())
}

// TestPragmaEdgeCases pins the pragma grammar's corners: several
// pragmas sharing one comment line, pragmas in block comments (single
// line and inner line, covering through the line after the closing
// delimiter), and a doc-comment pragma covering its whole declaration
// but not the code after it. Expectations are inline because a want
// comment cannot share a line with the pragma it describes.
func TestPragmaEdgeCases(t *testing.T) {
	pkg := loadFixture(t, "pragmaedge", "repro/internal/webgen")
	res := Run([]*Package{pkg}, []*Analyzer{determinismAnalyzer(), maporderAnalyzer()})

	var leaked []string
	for _, d := range res.Diagnostics {
		if d.Analyzer != "determinism" || !strings.Contains(d.Message, "time.Now") {
			leaked = append(leaked, d.String())
		}
	}
	if len(leaked) > 0 {
		t.Errorf("unexpected diagnostics: %v", leaked)
	}
	// Exactly one finding survives: afterDecl's time.Now, proving the
	// doc pragma stops at its declaration's end.
	if got := len(res.Diagnostics); got != 1 {
		t.Errorf("want exactly 1 surviving diagnostic, got %d: %v", got, res.Diagnostics)
	}
	// multiOnOneLine (1) + blockComment (1) + blockInner (1) +
	// declCovered (2) determinism suppressions; multiOnOneLine's append
	// is the single maporder suppression.
	if got := res.Suppressed["determinism"]; got != 5 {
		t.Errorf("Suppressed[determinism] = %d, want 5", got)
	}
	if got := res.Suppressed["maporder"]; got != 1 {
		t.Errorf("Suppressed[maporder] = %d, want 1", got)
	}
}

// TestPragmaValidation checks that malformed pragmas are themselves
// diagnostics and suppress nothing, while a well-formed pragma
// suppresses its target. Expectations are inline here because a want
// comment cannot share a line with the pragma it describes.
func TestPragmaValidation(t *testing.T) {
	pkg := loadFixture(t, "pragma", "repro/internal/webgen")
	diags := Run([]*Package{pkg}, []*Analyzer{determinismAnalyzer()}).Diagnostics

	byAnalyzer := map[string][]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], d.Line)
	}
	// Three malformed pragmas (missing reason, unknown analyzer, bare
	// marker) are diagnosed at the pragma lines.
	if got := byAnalyzer["pragma"]; len(got) != 3 {
		t.Errorf("want 3 pragma diagnostics, got %d: %v", len(got), diags)
	}
	// The three time.Now calls under malformed pragmas stay reported
	// (malformed pragmas suppress nothing); the fourth, under the
	// well-formed pragma, is suppressed.
	if got := byAnalyzer["determinism"]; len(got) != 3 {
		t.Errorf("want 3 unsuppressed determinism diagnostics, got %d: %v", len(got), diags)
	}
}
