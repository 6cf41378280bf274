package davix

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// codeCeilings is the committed size budget: the most non-test Go code
// lines each package directory may hold. A change that grows a package
// raises its ceiling in the same diff, where review sees it; a change that
// shrinks one by more than ceilingSlack lowers it, so the budget follows
// the code down. Directories in ungatedDirs are counted and printed only.
var codeCeilings = map[string]int{
	".":                   190,
	"cmd/davix-get":       189,
	"cmd/dpm-server":      80,
	"examples/federation": 113,
	"examples/quickstart": 96,
	"examples/tpc":        91,
	"internal/blockcache": 179,
	"internal/bufpool":    61,
	"internal/core":       3103,
	"internal/digest":     272,
	"internal/faults":     232,
	"internal/fed":        103,
	"internal/httpserv":   1152,
	"internal/metalink":   113,
	"internal/netsim":     494,
	"internal/obs":        446,
	"internal/pool":       344,
	"internal/rangev":     485,
	"internal/rootio":     1553,
	"internal/s3":         144,
	"internal/storage":    508,
	"internal/webdav":     975,
	"internal/wire":       562,
	"internal/xrootd":     702,
}

// ungatedDirs holds the committed benchmark: its size is reported, not
// budgeted.
var ungatedDirs = map[string]bool{"benchmark": true}

// ceilingSlack is how far under its ceiling a package may fall before the
// ceiling must come down with it.
const ceilingSlack = 0.02

// codeLines counts the lines of src that carry a non-comment token; a
// token spanning lines (a raw string) counts every line it spans.
func codeLines(src []byte) (int, error) {
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(src))
	var errs scanner.ErrorList
	var s scanner.Scanner
	s.Init(file, src, errs.Add, 0)
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		first, last := file.Line(pos), file.Line(pos)
		if tok == token.STRING {
			last += strings.Count(lit, "\n")
		}
		for l := first; l <= last; l++ {
			lines[l] = true
		}
	}
	return len(lines), errs.Err()
}

// TestCodeSizeCeilings counts non-test code lines per package directory
// and holds every gated package to its committed ceiling.
func TestCodeSizeCeilings(t *testing.T) {
	counts := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n, err := codeLines(src)
		if err != nil {
			return err
		}
		counts[filepath.ToSlash(filepath.Dir(path))] += n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	dirs := make([]string, 0, len(counts))
	for dir := range counts {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	gated := 0
	for _, dir := range dirs {
		n := counts[dir]
		if ungatedDirs[dir] {
			t.Logf("%-22s %5d lines (not gated)", dir, n)
			continue
		}
		gated += n
		ceiling, ok := codeCeilings[dir]
		t.Logf("%-22s %5d lines, ceiling %d", dir, n, ceiling)
		switch {
		case !ok:
			t.Errorf("%s: new package with %d code lines has no ceiling; add one to codeCeilings", dir, n)
		case n > ceiling:
			t.Errorf("%s: %d code lines, over its ceiling of %d; raise the ceiling in this diff if the growth is intended", dir, n, ceiling)
		case float64(n) < float64(ceiling)*(1-ceilingSlack):
			t.Errorf("%s: %d code lines, more than %.0f%% under its ceiling of %d; lower the ceiling to %d", dir, n, ceilingSlack*100, ceiling, n)
		}
	}
	for dir := range codeCeilings {
		if _, ok := counts[dir]; !ok {
			t.Errorf("%s: has a ceiling but no code; delete the entry", dir)
		}
	}
	t.Logf("gated total: %d code lines", gated)
}

func TestCodeLinesCountsTokenLines(t *testing.T) {
	src := "// Package p is documented.\npackage p\n\n/* a block\n   comment */\nvar s = `raw\nstring`\n\nfunc f() {} // trailing\n"
	if n, err := codeLines([]byte(src)); err != nil || n != 4 {
		t.Fatalf("codeLines = %d, %v; want 4 (package, two raw-string lines, func)", n, err)
	}
}
