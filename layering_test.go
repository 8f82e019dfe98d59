package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCrawlLayersStayBelowThePagePlane: dispatch, fabric and crawler
// lease, move and settle sites and page lines; what a page is belongs to
// the page plane above them (core) and to the packages it assembles. So
// none of their non-test files imports the browser, the synthetic web,
// its server or the labeler — except crawler, whose pool drives the
// browser.
func TestCrawlLayersStayBelowThePagePlane(t *testing.T) {
	plane := []string{"browser", "webgen", "webserver", "labeler"}
	allowed := map[string]string{"internal/crawler": "browser"}
	for _, layer := range []string{"internal/dispatch", "internal/fabric", "internal/crawler"} {
		err := filepath.WalkDir(layer, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				for _, pkg := range plane {
					if p == "repro/internal/"+pkg && allowed[layer] != pkg {
						t.Errorf("%s imports %s", path, p)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
