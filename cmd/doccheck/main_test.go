package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckMarkdown(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "docs", "GOOD.md"), strings.Join([]string{
		"# Title here",
		"## A section, with `code` and **bold**!",
		"Link back to [readme](../README.md) and to",
		"[the section](#a-section-with-code-and-bold).",
		"External [ok](https://example.com/x#y) is skipped.",
		"```",
		"[not a link](inside/a/code.block)",
		"```",
	}, "\n"))
	write(t, filepath.Join(dir, "README.md"), strings.Join([]string{
		"# Readme",
		"[good](docs/GOOD.md#title-here)",
		"[missing file](docs/NOPE.md)",
		"[missing anchor](docs/GOOD.md#no-such-heading)",
	}, "\n"))

	files, err := collectMarkdown([]string{filepath.Join(dir, "README.md"), filepath.Join(dir, "docs")})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("collectMarkdown = %v, want 2 files", files)
	}
	problems := checkMarkdown(files)
	if len(problems) != 2 {
		t.Fatalf("problems = %v, want exactly the two planted breaks", problems)
	}
	for _, want := range []string{"NOPE.md", "no-such-heading"} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no problem mentions %q: %v", want, problems)
		}
	}
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Title here":                             "title-here",
		"A section, with `code` and **b**!":      "a-section-with-code-and-b",
		"SLP — storage-level (the paper's §4.1)": "slp--storage-level-the-papers-41",
		"Which doc do I read?":                   "which-doc-do-i-read",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckPkgDocs(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "p.go"), `// Package p is a doccheck fixture.
package p

// Documented is fine.
type Documented struct{}

// Method is fine.
func (Documented) Method() {}

func (Documented) Naked() {}

type Undocumented struct{}

// Grouped constants share one doc comment.
const (
	A = iota
	B
)

var Exposed = 1

type hidden struct{}

// methods on unexported receivers are exempt even when exported.
func (hidden) Exported() {}

func internal() {}
`)
	write(t, filepath.Join(dir, "p_test.go"), `package p

func TestHelperWithoutDoc() {} // test files are excluded entirely
`)

	problems, err := checkPkgDocs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range problems {
		i := strings.Index(p, "exported ")
		names = append(names, p[i:])
	}
	want := []string{
		"exported method Naked has no doc comment",
		"exported type Undocumented has no doc comment",
		"exported var Exposed has no doc comment",
	}
	if len(problems) != len(want) {
		t.Fatalf("problems = %v, want %v", problems, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("problem %d = %q, want %q", i, names[i], want[i])
		}
	}
}

// TestRepoDocsClean runs the two checks over the repository's own docs and
// every package under internal/, found by walking the tree as CI's `go list`
// does, so a broken link or an undocumented export fails `go test` locally
// too, and a new package is gated as soon as it exists.
func TestRepoDocsClean(t *testing.T) {
	root := "../.."
	files, err := collectMarkdown([]string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "docs"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if problems := checkMarkdown(files); len(problems) > 0 {
		t.Errorf("markdown problems:\n%s", strings.Join(problems, "\n"))
	}
	var pkgs []string
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				pkgs = append(pkgs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no package under internal/")
	}
	for _, pkg := range pkgs {
		problems, err := checkPkgDocs(pkg)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) > 0 {
			t.Errorf("%s doc-comment problems:\n%s", pkg, strings.Join(problems, "\n"))
		}
	}
}
