// docscheck is the documentation link-and-anchor checker wired into
// `make docs-check` and CI: it walks the markdown files given as
// arguments, extracts every inline link, and verifies that
//
//   - relative link targets exist on disk (relative to the linking file);
//   - fragment links (#section, file.md#section) resolve to a heading in
//     the target file, using GitHub's heading-to-anchor slug rules;
//   - in-repo links do not use absolute filesystem paths;
//   - the package table (the first table under a heading that starts with
//     "internal/") names, in its first column, exactly the directories of
//     Go files under internal/ beside the file — no row for a package that
//     is gone, no package without a row.
//
// External schemes (http, https, mailto) are deliberately not fetched —
// CI must not depend on the network — so only their syntax is accepted.
// Exit status is non-zero if any check fails, so stale links fail the
// build instead of rotting silently.
//
// Usage:
//
//	docscheck README.md docs/*.md
package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// linkRE matches inline markdown links [text](target). Images share the
// syntax (![alt](target)) and are checked the same way.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// headingRE matches ATX headings; the capture is the heading text.
var headingRE = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*#*\s*$`)

// fenceRE strips fenced code blocks so example links and #-comments inside
// them are not checked.
var fenceRE = regexp.MustCompile("(?s)```.*?```")

// pkgHeadingRE finds the heading the package table sits under; codeRE
// extracts backticked names from a table cell.
var (
	pkgHeadingRE = regexp.MustCompile(`(?m)^#{1,6}\s+internal/`)
	codeRE       = regexp.MustCompile("`([^`]+)`")
)

// slug converts a heading to its GitHub anchor: lowercase, markup
// stripped, punctuation dropped, spaces to hyphens.
func slug(h string) string {
	h = strings.NewReplacer("`", "", "*", "", "_", " ").Replace(h)
	h = strings.ToLower(strings.TrimSpace(h))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchorsOf returns the set of heading anchors of one markdown file,
// applying GitHub's duplicate-suffix rule (-1, -2, ...).
func anchorsOf(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	body := fenceRE.ReplaceAllString(string(data), "")
	anchors := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(body, -1) {
		a := slug(m[1])
		if !anchors[a] {
			anchors[a] = true
			continue
		}
		for i := 1; ; i++ {
			if d := fmt.Sprintf("%s-%d", a, i); !anchors[d] {
				anchors[d] = true
				break
			}
		}
	}
	return anchors, nil
}

// checkPackageTable holds file's package table, if it has one, to the
// directories of Go files under internal/ beside file.
func checkPackageTable(file, body string, fail func(file, format string, args ...any)) {
	loc := pkgHeadingRE.FindStringIndex(body)
	if loc == nil {
		return
	}
	listed := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(body[loc[1]:], "\n")[1:] {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			if inTable || strings.HasPrefix(line, "#") {
				break
			}
			continue
		}
		inTable = true
		first := strings.SplitN(line, "|", 3)[1]
		for _, m := range codeRE.FindAllStringSubmatch(first, -1) {
			listed[m[1]] = true
		}
	}
	root := filepath.Join(filepath.Dir(file), "internal")
	ents, err := os.ReadDir(root)
	if err != nil {
		fail(file, "package table: %v", err)
		return
	}
	pkgs := map[string]bool{}
	for _, e := range ents {
		if gos, _ := filepath.Glob(filepath.Join(root, e.Name(), "*.go")); e.IsDir() && len(gos) > 0 {
			pkgs[e.Name()] = true
		}
	}
	for _, name := range slices.Sorted(maps.Keys(listed)) {
		if !pkgs[name] {
			fail(file, "package table lists %q, which is not a package under %s", name, root)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(pkgs)) {
		if !listed[name] {
			fail(file, "package %s/%s has no row in the package table", root, name)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run checks every file and reports problems to stderr; it returns the
// process exit status (0 clean, 1 problems found, 2 usage error).
func run(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "usage: docscheck FILE.md ...")
		return 2
	}
	anchorCache := map[string]map[string]bool{}
	fails := 0
	fail := func(file, format string, args ...any) {
		fmt.Fprintf(stderr, "%s: %s\n", file, fmt.Sprintf(format, args...))
		fails++
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fail(file, "%v", err)
			continue
		}
		body := fenceRE.ReplaceAllString(string(data), "")
		checkPackageTable(file, body, fail)
		for _, m := range linkRE.FindAllStringSubmatch(body, -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			case strings.HasPrefix(target, "/"):
				fail(file, "absolute path link %q (use a repo-relative path)", target)
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			resolved := file
			if path != "" {
				resolved = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(resolved); err != nil {
					fail(file, "broken link %q: %v", target, err)
					continue
				}
			}
			if frag == "" {
				continue
			}
			if !strings.HasSuffix(resolved, ".md") {
				fail(file, "anchor link %q into a non-markdown target", target)
				continue
			}
			anchors, ok := anchorCache[resolved]
			if !ok {
				anchors, err = anchorsOf(resolved)
				if err != nil {
					fail(file, "anchor link %q: %v", target, err)
					continue
				}
				anchorCache[resolved] = anchors
			}
			if !anchors[frag] {
				fail(file, "anchor %q not found in %s", target, resolved)
			}
		}
	}
	if fails > 0 {
		fmt.Fprintf(stderr, "docscheck: %d problem(s)\n", fails)
		return 1
	}
	fmt.Fprintf(stdout, "docscheck: %d file(s) clean\n", len(files))
	return 0
}
