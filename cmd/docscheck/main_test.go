package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func runOn(t *testing.T, files ...string) (int, string, string) {
	t.Helper()
	for i, f := range files {
		files[i] = filepath.Join("testdata", f)
	}
	var stdout, stderr strings.Builder
	code := run(files, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCleanDoc(t *testing.T) {
	code, stdout, stderr := runOn(t, "clean.md", "target.md")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "2 file(s) clean") {
		t.Errorf("stdout should report both files clean, got %q", stdout)
	}
}

func TestBrokenLink(t *testing.T) {
	code, _, stderr := runOn(t, "broken-link.md")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, `broken link "no-such-file.md"`) {
		t.Errorf("missing broken-link report, got:\n%s", stderr)
	}
	if !strings.Contains(stderr, "absolute path link") {
		t.Errorf("missing absolute-path report, got:\n%s", stderr)
	}
	if !strings.Contains(stderr, "2 problem(s)") {
		t.Errorf("should count exactly 2 problems, got:\n%s", stderr)
	}
}

func TestBrokenAnchor(t *testing.T) {
	code, _, stderr := runOn(t, "broken-anchor.md")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, `anchor "target.md#no-such-heading" not found`) {
		t.Errorf("missing broken-anchor report, got:\n%s", stderr)
	}
}

func TestNoArgsIsUsageError(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestPackageTableMatchesTree(t *testing.T) {
	code, _, stderr := runOn(t, "pkgtable/good.md")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
}

func TestPackageTableDrift(t *testing.T) {
	code, _, stderr := runOn(t, "pkgtable/bad.md")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		`package table lists "gamma", which is not a package`,
		"pkgtable/internal/beta has no row in the package table",
		"2 problem(s)",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("missing %q in:\n%s", want, stderr)
		}
	}
}
