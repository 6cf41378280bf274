package davix

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciFiles are the documents that run tests by name: the CI workflow, one
// command a line, and the verify skill, one command a `code span`.
var ciFiles = []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}

// TestCIRunNamesResolve: every test, fuzz target and benchmark that a
// `go test` command in ciFiles selects still exists. A pattern of the form
// ^Name$, ^(A|B)$ or ^Prefix(A|B)$ must resolve name by name to a function
// declared in the _test.go files of the packages the command names; any
// other pattern, except ^$ and one the shell builds from a variable (the
// fuzz step's loop over `go test -list`), must match at least one. Without
// this check a renamed test drops out of its step, which then passes as
// [no tests to run].
func TestCIRunNamesResolve(t *testing.T) {
	resolved := 0
	for _, file := range ciFiles {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		cmds := goTestCommands(string(src), strings.HasSuffix(file, ".md"))
		if len(cmds) == 0 {
			t.Errorf("%s: no go test command found", file)
		}
		for _, cmd := range cmds {
			funcs, err := testFuncs(cmd.pkgs)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			for _, sel := range cmd.sels {
				if shellVarRE.MatchString(sel.pattern) {
					continue
				}
				names, exact := sel.names()
				for _, name := range names {
					if !identRE.MatchString(name) {
						t.Errorf("%s: %s %q: %q is not a function name; keep anchored patterns to ^Name$ or ^Prefix(A|B)$", file, sel.flag, sel.pattern, name)
					} else if !funcs[name] || !sel.picks(name) {
						t.Errorf("%s: %s %q names %s, which no _test.go file in %v declares as a %s", file, sel.flag, sel.pattern, name, cmd.pkgs, sel.flag)
					}
					resolved++
				}
				if exact {
					continue
				}
				re, err := regexp.Compile(sel.pattern)
				if err != nil {
					t.Errorf("%s: %s %q: %v", file, sel.flag, sel.pattern, err)
					continue
				}
				matched := false
				for name := range funcs {
					matched = matched || sel.picks(name) && re.MatchString(name)
				}
				if !matched {
					t.Errorf("%s: %s %q matches no %s in %v", file, sel.flag, sel.pattern, sel.flag, cmd.pkgs)
				}
			}
		}
	}
	// The workflow alone names over 30 functions; far fewer means the
	// command reader above, not the workflow, went wrong.
	if resolved < 10 {
		t.Fatalf("resolved only %d names in %v", resolved, ciFiles)
	}
	t.Logf("%d names resolved", resolved)
}

// goTestCmd is one `go test` invocation: its selectors and packages.
type goTestCmd struct {
	sels []selector
	pkgs []string
}

// selector is one -run, -fuzz or -bench pattern.
type selector struct{ flag, pattern string }

// picks reports whether a function of this name is of the kind the
// selector's flag runs: -run runs tests, examples and fuzz targets' seeds.
func (s selector) picks(name string) bool {
	switch s.flag {
	case "fuzz":
		return strings.HasPrefix(name, "Fuzz")
	case "bench":
		return strings.HasPrefix(name, "Benchmark")
	}
	return strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Example") || strings.HasPrefix(name, "Fuzz")
}

// names expands an anchored pattern into the function names it lists, and
// reports whether the pattern was anchored (^$ lists none).
func (s selector) names() ([]string, bool) {
	body, ok := strings.CutPrefix(s.pattern, "^")
	if body, ok2 := strings.CutSuffix(body, "$"); ok && ok2 {
		if body == "" {
			return nil, true
		}
		i, j := strings.IndexByte(body, '('), strings.LastIndexByte(body, ')')
		if i < 0 || j < i {
			return []string{body}, true
		}
		var out []string
		for _, alt := range strings.Split(body[i+1:j], "|") {
			out = append(out, body[:i]+alt+body[j+1:])
		}
		return out, true
	}
	return nil, false
}

var identRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// shellVarRE finds a shell parameter expansion ($name, ${name}) in a
// pattern: its names exist only when the step runs.
var shellVarRE = regexp.MustCompile(`\$\{?[A-Za-z_]`)

// goTestCommands finds the `go test` commands in a document: in markdown,
// inside code spans (which may wrap lines); elsewhere, one per line.
func goTestCommands(src string, markdown bool) []goTestCmd {
	var segs []string
	if markdown {
		parts := strings.Split(src, "`")
		for i := 1; i < len(parts); i += 2 {
			segs = append(segs, strings.ReplaceAll(parts[i], "\n", " "))
		}
	} else {
		segs = strings.Split(src, "\n")
	}
	var out []goTestCmd
	for _, seg := range segs {
		toks := shellWords(seg)
		for i := 0; i+1 < len(toks); i++ {
			if toks[i] == "go" && toks[i+1] == "test" {
				out = append(out, parseGoTest(toks[i+2:]))
			}
		}
	}
	return out
}

// shellWords splits a command line into words, honouring single and double
// quotes; an unquoted |, ; or & ends a word and is a word of its own.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	in, quote := false, byte(0)
	flush := func() {
		if in {
			words = append(words, cur.String())
			cur.Reset()
			in = false
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, in = c, true
		case c == ' ' || c == '\t':
			flush()
		case c == '|' || c == ';' || c == '&':
			flush()
			words = append(words, string(c))
		default:
			cur.WriteByte(c)
			in = true
		}
	}
	flush()
	return words
}

// boolTestFlags are the go test flags that take no value.
var boolTestFlags = map[string]bool{"v": true, "race": true, "short": true, "json": true, "cover": true, "failfast": true, "benchmem": true}

// parseGoTest reads the words after `go test` up to the end of the command.
func parseGoTest(words []string) goTestCmd {
	var cmd goTestCmd
	for i := 0; i < len(words); i++ {
		w := words[i]
		if w == "|" || w == ";" || w == "&" {
			break
		}
		name, ok := strings.CutPrefix(w, "-")
		if !ok {
			cmd.pkgs = append(cmd.pkgs, w)
			continue
		}
		name = strings.TrimPrefix(name, "-")
		name, val, hasVal := strings.Cut(name, "=")
		if !hasVal && !boolTestFlags[name] && i+1 < len(words) {
			i++
			val = words[i]
		}
		if name == "run" || name == "fuzz" || name == "bench" {
			cmd.sels = append(cmd.sels, selector{name, val})
		}
	}
	if len(cmd.pkgs) == 0 {
		cmd.pkgs = []string{"."}
	}
	return cmd
}

// testFuncs returns the top-level functions declared in the _test.go files
// of the given package patterns ("./dir", "./dir/..."), by name.
func testFuncs(pkgs []string) (map[string]bool, error) {
	funcs := map[string]bool{}
	err := eachTestFunc(pkgs, func(_ string, fd *ast.FuncDecl) { funcs[fd.Name.Name] = true })
	return funcs, err
}

// eachTestFunc calls fn with every top-level function declared in the
// _test.go files of the given package patterns, and its directory.
func eachTestFunc(pkgs []string, fn func(dir string, fd *ast.FuncDecl)) error {
	fset := token.NewFileSet()
	add := func(dir string) error {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return err
		}
		for _, f := range files {
			af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range af.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					fn(dir, fd)
				}
			}
		}
		return nil
	}
	for _, p := range pkgs {
		dir, recursive := strings.CutSuffix(filepath.Clean(p), string(filepath.Separator)+"...")
		if p == "./..." {
			dir, recursive = ".", true
		}
		if !recursive {
			if err := add(dir); err != nil {
				return err
			}
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != dir && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return add(path)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// TestAllocChecksRunWithoutRace: every test that measures allocations —
// it calls testing.AllocsPerRun or runtime.ReadMemStats, itself or
// through a helper of its package — is selected by the workflow's
// "alloc budgets" step, which runs without the race detector. Under
// -race, sync.Pool drops what it is given at random, so an exact count
// holds only in that step; a measuring test it does not select runs only
// under -race, where its budget must be loosened or it flakes.
func TestAllocChecksRunWithoutRace(t *testing.T) {
	src, err := os.ReadFile(ciFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	_, step, ok := strings.Cut(string(src), "- name: alloc budgets")
	if !ok {
		t.Fatalf("%s: no \"alloc budgets\" step", ciFiles[0])
	}
	step, _, _ = strings.Cut(step, "- name:")
	cmds := goTestCommands(step, false)
	if len(cmds) != 1 || len(cmds[0].sels) != 1 || cmds[0].sels[0].flag != "run" || strings.Contains(step, "-race") {
		t.Fatalf("the alloc budgets step must be one go test -run command without -race:%s", step)
	}
	run, err := regexp.Compile(cmds[0].sels[0].pattern)
	if err != nil {
		t.Fatal(err)
	}
	selected := map[string]bool{}
	if err := eachTestFunc(cmds[0].pkgs, func(dir string, fd *ast.FuncDecl) {
		selected[filepath.Join(dir, fd.Name.Name)] = true
	}); err != nil {
		t.Fatal(err)
	}

	// Per directory: which functions measure, and which call which.
	type pkgFuncs struct {
		measures map[string]bool
		calls    map[string][]string
	}
	pkgs := map[string]*pkgFuncs{}
	if err := eachTestFunc([]string{"./..."}, func(dir string, fd *ast.FuncDecl) {
		p := pkgs[dir]
		if p == nil {
			p = &pkgFuncs{measures: map[string]bool{}, calls: map[string][]string{}}
			pkgs[dir] = p
		}
		name := fd.Name.Name
		ast.Inspect(fd, func(n ast.Node) bool {
			switch f := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := f.X.(*ast.Ident); ok && (x.Name == "testing" && f.Sel.Name == "AllocsPerRun" ||
					x.Name == "runtime" && f.Sel.Name == "ReadMemStats") {
					p.measures[name] = true
				}
			case *ast.CallExpr:
				if id, ok := f.Fun.(*ast.Ident); ok {
					p.calls[name] = append(p.calls[name], id.Name)
				}
			}
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	measuring := 0
	for dir, p := range pkgs {
		for changed := true; changed; {
			changed = false
			for name, callees := range p.calls {
				for _, c := range callees {
					if p.measures[c] && !p.measures[name] {
						p.measures[name], changed = true, true
					}
				}
			}
		}
		for name := range p.measures {
			if !strings.HasPrefix(name, "Test") {
				continue
			}
			measuring++
			if !selected[filepath.Join(dir, name)] || !run.MatchString(name) {
				t.Errorf("%s.%s measures allocations, but the alloc budgets step (-run %q %v) does not run it", dir, name, run, cmds[0].pkgs)
			}
		}
	}
	// A dozen tests measure; far fewer means the reader above went wrong.
	if measuring < 10 {
		t.Fatalf("found only %d tests that measure allocations", measuring)
	}
	t.Logf("%d tests measure allocations", measuring)
}
