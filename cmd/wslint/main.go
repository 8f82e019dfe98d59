// Command wslint runs the repo's static-analysis suite (internal/lint)
// over the module and exits non-zero on findings. It is the mechanical
// guard for the invariants behind the reproduction's recorded bytes
// that no test or `go vet` holds: deterministic packages stay seeded,
// map order never reaches output, instrumentation stays observe-only,
// the serving plane's deadlines and lock annotations hold, and every
// declaration under internal/ has a non-test use (DESIGN.md §9). The
// module is parsed and type-checked from source; a package that fails
// to parse or type-check surfaces as "load" diagnostics and is not
// linted further.
//
// Usage:
//
//	wslint [-json] [-list] [pattern ...]
//
// Patterns are module-relative: "./..." (or none) lints everything;
// "./internal/webgen" lints one directory; "./internal/..." a subtree.
// The whole module is loaded either way, so a use from an unselected
// package still counts.
// -json emits a stable object: {"diagnostics": [...], "suppressed":
// {analyzer: count}}, diagnostics sorted by file/line/col/analyzer
// across packages and every registered analyzer present in suppressed
// (zero included). -list prints the registered analyzers with their
// one-line docs.
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// jsonReport is the stable -json schema: diagnostics sorted by
// position, plus the per-analyzer pragma-suppression counts.
type jsonReport struct {
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
	Suppressed  map[string]int    `json:"suppressed"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit a JSON object: diagnostics plus per-analyzer suppressed counts")
	listAnalyzers := flag.Bool("list", false, "list the analyzer suite with one-line docs and exit")
	flag.Parse()

	analyzers := lint.Suite()
	if *listAnalyzers {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := lint.ModuleRoot(".")
	if err != nil {
		fatal(err)
	}
	res, err := lintModule(root, flag.Args(), analyzers)
	if err != nil {
		fatal(err)
	}
	diags := res.Diagnostics
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(jsonReport{Diagnostics: diags, Suppressed: res.Suppressed}); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "wslint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// lintModule loads the module at root and lints the packages the
// patterns select. Every loaded package stays the analyzers' module, so
// a subset run sees each caller the full run sees.
func lintModule(root string, patterns []string, analyzers []*lint.Analyzer) (lint.Result, error) {
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		return lint.Result{}, err
	}
	selected, err := filterPackages(pkgs, root, patterns)
	if err != nil {
		return lint.Result{}, err
	}
	return lint.Run(pkgs, selected, analyzers), nil
}

// filterPackages applies go-style directory patterns to the loaded
// package set. Patterns are resolved against the current directory, so
// wslint behaves the same from the module root and from subdirectories.
func filterPackages(pkgs []*lint.Package, root string, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var keep []*lint.Package
	matched := map[string]bool{}
	for _, pkg := range pkgs {
		for _, pat := range patterns {
			recursive := false
			dir := pat
			if rest, ok := strings.CutSuffix(pat, "/..."); ok {
				recursive = true
				dir = rest
			}
			if dir == "" || dir == "." {
				dir = cwd
			} else if !filepath.IsAbs(dir) {
				dir = filepath.Join(cwd, dir)
			}
			ok := pkg.Dir == dir || (recursive && strings.HasPrefix(pkg.Dir+string(filepath.Separator), dir+string(filepath.Separator)))
			if ok {
				keep = append(keep, pkg)
				matched[pat] = true
				break
			}
		}
	}
	for _, pat := range patterns {
		if !matched[pat] {
			return nil, fmt.Errorf("wslint: pattern %q matched no packages under %s", pat, root)
		}
	}
	return keep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
