package lint

// Loader robustness tests: the loader must degrade per package, never
// fail the whole run. A syntax error in one package leaves the
// rest fully linted; a missing import surfaces as a positioned "load"
// diagnostic instead of a panic or a module-wide error.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a throwaway module from path->source pairs.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		full := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func pkgByPath(pkgs []*Package, path string) *Package {
	for _, p := range pkgs {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// TestLoadLenientSyntaxError checks that a package that fails to parse
// is carried as "load" diagnostics while its siblings still parse,
// type-check, and lint.
func TestLoadLenientSyntaxError(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":           "module tmpmod\n\ngo 1.22\n",
		"broken/broken.go": "package broken\n\nfunc oops( {\n",
		"good/good.go": `package good

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	})
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}

	broken := pkgByPath(pkgs, "tmpmod/broken")
	if broken == nil {
		t.Fatal("broken package dropped from the package set")
	}
	if len(broken.Errs) == 0 {
		t.Fatal("broken package carries no load diagnostics")
	}
	for _, d := range broken.Errs {
		if d.Analyzer != "load" {
			t.Errorf("broken package diagnostic has analyzer %q, want load", d.Analyzer)
		}
	}
	if broken.Typed() {
		t.Error("broken package claims type information")
	}

	good := pkgByPath(pkgs, "tmpmod/good")
	if good == nil {
		t.Fatal("good package missing")
	}
	if !good.Typed() {
		t.Errorf("good package did not type-check: %v", good.Errs)
	}

	res := Run(pkgs, pkgs, Suite())
	var sawLoad, sawMaporder bool
	for _, d := range res.Diagnostics {
		switch d.Analyzer {
		case "load":
			sawLoad = true
		case "maporder":
			if strings.HasSuffix(d.File, "good/good.go") {
				sawMaporder = true
			}
		}
	}
	if !sawLoad {
		t.Error("Run dropped the load diagnostics of the broken package")
	}
	if !sawMaporder {
		t.Errorf("sibling package was not linted: %v", res.Diagnostics)
	}
}

// TestLoadMissingImportDiagnostic checks that an unresolvable import
// fails with a positioned diagnostic naming the import, not a panic,
// and leaves the package untyped.
func TestLoadMissingImportDiagnostic(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"withdep/withdep.go": `package withdep

import "no/such/dep"

var X = dep.Thing
`,
	})
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	p := pkgByPath(pkgs, "tmpmod/withdep")
	if p == nil {
		t.Fatal("withdep package missing")
	}
	if p.Typed() {
		t.Error("package with missing import claims type information")
	}
	if len(p.Errs) == 0 {
		t.Fatal("missing import produced no load diagnostic")
	}
	found := false
	for _, d := range p.Errs {
		if d.Analyzer == "load" && strings.Contains(d.Message, "no/such/dep") {
			found = true
			if d.Line == 0 {
				t.Error("load diagnostic has no position")
			}
		}
	}
	if !found {
		t.Errorf("no load diagnostic names the missing import: %v", p.Errs)
	}
}
