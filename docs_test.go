package gridvo

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyExistingCommands is the docs gate for deleted commands:
// every ./cmd/<name> that a Markdown document or the verify skill names
// must be a directory of this module, so a removed command cannot linger
// in a recipe. CHANGES.md and ROADMAP.md are history and may name
// commands that are gone. Dot directories (.git, build caches) are
// skipped; the verify skill under .claude is checked explicitly.
func TestDocsNameOnlyExistingCommands(t *testing.T) {
	history := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}
	docs := []string{filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") && !history[path] {
			docs = append(docs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cmdRef := regexp.MustCompile(`\./cmd/([A-Za-z0-9_-]+)`)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d names %s, which is not a command of this module", doc, i+1, m[0])
				}
			}
		}
	}
}
