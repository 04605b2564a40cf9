package gridvo

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyExistingCommands is the docs gate for deleted commands
// and packages: every ./cmd/<name> and every internal/<name> that a
// Markdown document or the verify skill names must be a directory of this
// module, so a removed command or package cannot linger in a recipe or a
// package table. CHANGES.md and ROADMAP.md are history and ISSUE.md
// describes pending work, so they may name paths that are gone or not yet
// made. Dot directories (.git, build caches) are skipped; the verify skill
// under .claude is checked explicitly.
func TestDocsNameOnlyExistingCommands(t *testing.T) {
	history := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "ISSUE.md": true}
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

	refs := []struct {
		dir string
		re  *regexp.Regexp
	}{
		{"cmd", regexp.MustCompile(`\./cmd/([A-Za-z0-9_-]+)`)},
		{"internal", regexp.MustCompile(`\binternal/([A-Za-z0-9_]+)`)},
	}
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, ref := range refs {
				for _, m := range ref.re.FindAllStringSubmatch(line, -1) {
					if fi, err := os.Stat(filepath.Join(ref.dir, m[1])); err != nil || !fi.IsDir() {
						t.Errorf("%s:%d names %s, which is not a directory of this module", doc, i+1, m[0])
					}
				}
			}
		}
	}
}
