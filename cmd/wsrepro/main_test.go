package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// studyFlags is a study small enough to crawl once per section.
var studyFlags = []string{"-publishers", "20", "-pages", "2", "-workers", "2"}

// wsrepro runs the command in-process and returns its stdout, failing
// the test unless it exits with want.
func wsrepro(t *testing.T, want int, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != want {
		t.Fatalf("wsrepro %s: exit %d, want %d\n%s", strings.Join(args, " "), code, want, stderr.String())
	}
	return stdout.String()
}

// TestSectionsAloneAreTheirSliceOfTheReport holds every selectable
// section, printed alone, to its slice of the full report, whether the
// section comes from a crawl or from the datasets -json saved. A
// section list spelt out twice drifts: -figure 3 once binned ranks
// 100K wide while the report binned them at 10K/20K/50K/…
func TestSectionsAloneAreTheirSliceOfTheReport(t *testing.T) {
	dir := t.TempDir()
	report := wsrepro(t, 0, append(studyFlags, "-json", dir)...)
	files, err := filepath.Glob(filepath.Join(dir, "crawl*.json"))
	if err != nil || len(files) != 4 {
		t.Fatalf("-json wrote %v (%v), want 4 datasets", files, err)
	}

	var want strings.Builder
	for _, s := range analysis.Sections {
		if s.Standalone {
			if strings.Contains(report, wsrepro(t, 0, "-"+s.Kind, s.Name)) {
				t.Errorf("%s %s is a worked example but appears in the report", s.Kind, s.Name)
			}
			continue
		}
		crawled := wsrepro(t, 0, append(studyFlags, "-"+s.Kind, s.Name)...)
		saved := wsrepro(t, 0, append([]string{"-" + s.Kind, s.Name}, files...)...)
		if crawled != saved {
			t.Errorf("%s %s differs between the crawl and its saved datasets", s.Kind, s.Name)
		}
		want.WriteString("\n")
		if s.Header != "" {
			want.WriteString(s.Header + "\n")
		}
		want.WriteString(crawled)
	}
	body, ok := strings.CutPrefix(report, strings.SplitAfter(report, "\n")[0])
	if !ok || body != want.String() {
		t.Errorf("report is not its banner followed by every section printed alone:\n--- report ---\n%s\n--- sections ---\n%s", report, want.String())
	}
}

// TestSavedDatasetsReproduceTheReport renders the datasets wsrepro -json
// wrote: the output must be the study's report byte for byte (the
// command this replaced printed 100 of the report's 127 lines).
func TestSavedDatasetsReproduceTheReport(t *testing.T) {
	dir := t.TempDir()
	report := wsrepro(t, 0, append(studyFlags, "-json", dir)...)
	var files []string
	for _, name := range []string{"crawl1.json", "crawl2.json", "crawl3.json", "crawl4.json"} {
		files = append(files, filepath.Join(dir, name))
	}
	if got := wsrepro(t, 0, files...); got != report {
		t.Errorf("rendering the saved datasets differs from the study's report:\n--- saved ---\n%s\n--- study ---\n%s", got, report)
	}
}

func TestSelectionErrors(t *testing.T) {
	dir := t.TempDir()
	wsrepro(t, 0, append(studyFlags, "-json", dir)...)
	wsrepro(t, 2, "-table", "6")
	wsrepro(t, 2, "-figure", "5")
	wsrepro(t, 2, "-table", "churn", filepath.Join(dir, "crawl1.json"))
	wsrepro(t, 2, "-resume")
	wsrepro(t, 1, filepath.Join(dir, "missing.json"))
}

// TestFailedRunRemovesTempState: without -state the study's state lives
// in a temporary directory that must go on every exit path, failures
// included (an os.Exit on the error path once leaked it).
func TestFailedRunRemovesTempState(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	wsrepro(t, 1, append(studyFlags, "-json", filepath.Join(notADir, "out"))...)
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("failed run left %d entries in the temp dir (first: %s)", len(left), left[0].Name())
	}
}
