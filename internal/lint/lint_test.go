package lint

import (
	"strings"
	"testing"
)

// TestLoadModule loads the enclosing module and sanity-checks the
// package set: the expected packages are present, import paths are
// derived from go.mod, and test files plus testdata fixtures are
// excluded from the lint surface.
func TestLoadModule(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	byPath := map[string]*Package{}
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}
	for _, path := range []string{
		"repro/internal/lint",
		"repro/internal/obs",
		"repro/internal/crawler",
		"repro/cmd/wslint",
	} {
		if byPath[path] == nil {
			t.Errorf("LoadModule missed package %s", path)
		}
	}
	for _, pkg := range pkgs {
		for _, name := range pkg.Filenames {
			if strings.HasSuffix(name, "_test.go") {
				t.Errorf("test file leaked into lint surface: %s", name)
			}
			if strings.Contains(name, "testdata/") {
				t.Errorf("testdata fixture leaked into lint surface: %s", name)
			}
		}
	}
	if lintPkg := byPath["repro/internal/lint"]; lintPkg != nil && lintPkg.Name != "lint" {
		t.Errorf("package name = %q, want lint", lintPkg.Name)
	}
}

// TestSuite checks the advertised analyzer suite, each runnable and
// documented.
func TestSuite(t *testing.T) {
	suite := Suite()
	want := []string{
		"determinism", "maporder", "observeonly", "spanclose", "deadline", "lockguard",
	}
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
}

// TestDiagnosticString pins the grep-able output format.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "internal/x/y.go", Line: 12, Col: 3, Analyzer: "determinism", Message: "m"}
	if got, want := d.String(), "internal/x/y.go:12:3: determinism: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
