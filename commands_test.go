package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners are the flag and *flag.FlagSet methods that register a
// flag; the *Var forms take the flag's name as their second argument.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "Duration": true, "Float64": true, "Func": true,
	"Int": true, "Int64": true, "String": true, "Uint": true, "Uint64": true,
	"BoolVar": true, "DurationVar": true, "Float64Var": true, "IntVar": true, "Int64Var": true,
	"StringVar": true, "TextVar": true, "UintVar": true, "Uint64Var": true, "Var": true,
}

// selectorCall splits a call of the form recv.method(...).
func selectorCall(n ast.Node) (call *ast.CallExpr, recv, method string) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, "", ""
	}
	return call, id.Name, sel.Sel.Name
}

// registeredFlags lists the flags a command's main.go registers, on the
// flag package or on any flag set it makes with flag.NewFlagSet.
func registeredFlags(f *ast.File) []string {
	sets := map[string]bool{"flag": true}
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if _, recv, method := selectorCall(rhs); recv == "flag" && method == "NewFlagSet" {
					if id, ok := as.Lhs[i].(*ast.Ident); ok {
						sets[id.Name] = true
					}
				}
			}
		}
		return true
	})
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, recv, method := selectorCall(n)
		if call == nil || !sets[recv] || !flagDefiners[method] {
			return true
		}
		arg := 0
		if strings.HasSuffix(method, "Var") {
			arg = 1
		}
		if len(call.Args) > arg {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names = append(names, name)
				}
			}
		}
		return true
	})
	return names
}

// usageBlock returns the indented block under "Usage:" in a package doc.
func usageBlock(doc string) string {
	_, rest, ok := strings.Cut(doc, "Usage:\n")
	if !ok {
		return ""
	}
	var block []string
	for _, line := range strings.Split(rest, "\n") {
		if line != "" && !strings.HasPrefix(line, "\t") {
			break
		}
		block = append(block, line)
	}
	return strings.Join(block, "\n")
}

// usageFlag matches a flag shown in a Usage: block (-name, not a
// hyphen inside a word).
var usageFlag = regexp.MustCompile(`(?:^|[^A-Za-z0-9-])-([a-z][a-z0-9-]*)`)

// binaryWord matches the words the docs use for this repository's
// binaries (wsrepro, wscrawl, …) and every cmd/ path.
var binaryWord = regexp.MustCompile(`\bcmd/([a-z0-9]+)|\b(ws[a-z]+)\b`)

// TestCommandSurfaceMatchesDocs holds the command surface to its docs,
// as TestMetricCatalogueMatchesDocs does the metric registry: the flags
// a cmd/*/main.go registers are the flags its Usage block shows, and
// the operator-facing documents name no binary that cmd/ lacks (a word
// ws… that is neither a command nor an internal package, or any missing
// cmd/NAME). A command folded into another cannot leave a runbook
// pointing at it.
func TestCommandSurfaceMatchesDocs(t *testing.T) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no commands found (%v)", err)
	}
	commands := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range mains {
		name := filepath.Base(filepath.Dir(path))
		commands[name] = true
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		usage := usageBlock(f.Doc.Text())
		if usage == "" {
			t.Errorf("%s: package doc has no Usage: block", path)
			continue
		}
		shown := map[string]bool{}
		for _, m := range usageFlag.FindAllStringSubmatch(usage, -1) {
			shown[m[1]] = true
		}
		registered := map[string]bool{}
		for _, flag := range registeredFlags(f) {
			registered[flag] = true
			if !shown[flag] {
				t.Errorf("%s registers -%s, but its Usage: block does not show it", name, flag)
			}
		}
		for flag := range shown {
			if !registered[flag] {
				t.Errorf("%s's Usage: block shows -%s, which it does not register", name, flag)
			}
		}
	}

	known := map[string]bool{"wss": true} // the secure WebSocket scheme
	for name := range commands {
		known[name] = true
	}
	pkgs, _ := filepath.Glob("internal/*")
	for _, pkg := range pkgs {
		known[filepath.Base(pkg)] = true
	}
	for _, doc := range []string{"README.md", "OPERATIONS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range binaryWord.FindAllStringSubmatch(string(text), -1) {
			switch {
			case m[1] != "" && !commands[m[1]]:
				t.Errorf("%s names cmd/%s, which does not exist", doc, m[1])
			case m[2] != "" && !known[m[2]]:
				t.Errorf("%s names the binary %s, which cmd/ does not build", doc, m[2])
			}
		}
	}
}

// fuzzSmokeLine is one target of the Makefile's fuzz-smoke recipe, and
// fuzzFunc a native fuzz target's declaration.
var (
	fuzzSmokeLine = regexp.MustCompile(`\$\(GO\) test (\S+) -run '\^\$\$' -fuzz '\^(Fuzz\w+)\$\$'`)
	fuzzFunc      = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
)

// TestFuzzSmokeListsEveryTarget: `make fuzz-smoke` runs every native
// fuzz target in the tree exactly once. A func Fuzz… in a _test.go file
// that the recipe misses, a target it lists twice, or one it lists that
// no test file declares, fails here instead of drifting from the list.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(makefile), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	listed := map[string]int{}
	for _, m := range fuzzSmokeLine.FindAllStringSubmatch(recipe, -1) {
		listed[m[1]+" "+m[2]]++
	}
	declared := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			declared["./"+filepath.ToSlash(filepath.Dir(path))+" "+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for target := range declared {
		if listed[target] == 0 {
			t.Errorf("make fuzz-smoke does not run %s", target)
		}
	}
	for target, n := range listed {
		switch {
		case n > 1:
			t.Errorf("make fuzz-smoke runs %s %d times", target, n)
		case !declared[target]:
			t.Errorf("make fuzz-smoke runs %s, which no test file declares", target)
		}
	}
	t.Logf("%d fuzz targets", len(declared))
}
