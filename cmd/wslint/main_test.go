package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestFilteredRunAgreesWithFullRun: a pattern-limited run reports, for
// the directories it selects, exactly the findings the full run reports
// there. unusedapi counts uses across the whole module, so a subset run
// that dropped the unselected packages before linting would flag every
// export of lib that only cmd/app calls.
func TestFilteredRunAgreesWithFullRun(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

func Called() int { return 1 }

func Uncalled() int { return 2 }
`,
		"internal/other/other.go": `package other

func Orphan() {}
`,
		"cmd/app/main.go": `package main

import "tmpmod/internal/lib"

func main() { println(lib.Called()) }
`,
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	suite := lint.Suite()
	full, err := lintModule(root, nil, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Diagnostics) != 2 {
		t.Fatalf("full run: %v, want Uncalled and Orphan flagged", full.Diagnostics)
	}
	for _, dir := range []string{"internal/lib", "internal/other", "internal/", "cmd/app"} {
		// Patterns resolve against the working directory; absolute
		// ones name the temp module's directories from anywhere.
		pattern := filepath.Join(root, dir)
		if strings.HasSuffix(dir, "/") {
			pattern += "/..."
		}
		var want []string
		for _, d := range full.Diagnostics {
			if strings.HasPrefix(d.File, dir) {
				want = append(want, d.String())
			}
		}
		res, err := lintModule(root, []string{pattern}, suite)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range res.Diagnostics {
			got = append(got, d.String())
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("wslint %s reported\n%s\nwant the full run's\n%s", pattern, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
