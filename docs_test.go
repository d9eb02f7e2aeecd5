package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// commandToken matches a command name: not part of a longer
	// hyphenated word (the x-cosmoflow-tensor media type), and with any
	// /v<N> schema suffix captured so schema IDs can be told apart.
	commandToken = regexp.MustCompile(`(?:^|[^\w-])cosmoflow-([a-z0-9]+)(/v[0-9])?`)
	// makeToken matches a make invocation where the docs write one: in
	// backticks, after &&, or at the start of a (code block) line — not the
	// verb in prose.
	makeToken   = regexp.MustCompile("(?m)(?:^[ \\t]*|`|&&[ \\t]*)make ([a-z][a-z0-9-]*)")
	makefileTgt = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):([^=]|$)`)
	// pathToken matches a repo path under internal/ or examples/, bare or
	// ./-prefixed, but not the tail of a longer path such as an import.
	pathToken = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:internal|examples)(?:/[\w.-]+)+)`)
)

// TestDocsNameOnlyExistingCommands keeps the docs from pointing at commands,
// make targets or paths that no longer exist: every cosmoflow-<name> must
// be a directory under cmd/, every `make <target>` a Makefile target, and
// every internal/<pkg> or examples/<dir> path must exist.
// CHANGES.md and ROADMAP.md are history and are not scanned, nor
// is benchmark/, whose files change only with the benchmark itself.
func TestDocsNameOnlyExistingCommands(t *testing.T) {
	files := []string{"DESIGN.md", "EXPERIMENTS.md", "doc.go", "Makefile", ".claude/skills/verify/SKILL.md"}
	scripts, err := filepath.Glob("scripts/*.sh")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, scripts...)
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Name() == "README.md" {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileTgt.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range commandToken.FindAllStringSubmatch(line, -1) {
				if m[2] != "" {
					continue // a schema ID such as cosmoflow-stats/v2
				}
				if fi, err := os.Stat(filepath.Join("cmd", "cosmoflow-"+m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d: names cosmoflow-%s, which is not a directory under cmd/", path, i+1, m[1])
				}
			}
			for _, m := range makeToken.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d: names `make %s`, which is not a Makefile target", path, i+1, m[1])
				}
			}
			for _, m := range pathToken.FindAllStringSubmatch(line, -1) {
				p := strings.TrimRight(m[1], ".")
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s:%d: names %s, which does not exist", path, i+1, p)
				}
			}
		}
	}
}
