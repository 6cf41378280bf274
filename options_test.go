package davix

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// optionFields is the committed size of the client's option surface: every
// field of Options doubles the configurations a test has to consider. A
// change that adds a field raises this count in the same diff, where review
// sees it; a change that removes one lowers it.
const optionFields = 21

// inertOptions are the Options fields the client ignores: each is marked
// Deprecated and stays only while the benchmark still sets it. No program
// code reads them (TestDeprecatedOptionsAreInert).
var inertOptions = []string{"PrefetchDepth", "VectorParallelism", "WalkParallelism", "UploadParallelism", "MaxStreams"}

// liveOptionFields is how many fields of Options the client acts on.
const liveOptionFields = 16

// TestOptionFieldCount holds Options to its committed field count, of
// which every inert field is named and the rest are live.
func TestOptionFieldCount(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	if n := typ.NumField(); n != optionFields {
		names := make([]string, n)
		for i := range names {
			names[i] = typ.Field(i).Name
		}
		t.Fatalf("Options has %d fields %v, committed count is %d; change optionFields in this diff if that is intended", n, names, optionFields)
	}
	for _, name := range inertOptions {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("inert option %s is not a field of Options; drop it from inertOptions", name)
		}
	}
	if live := optionFields - len(inertOptions); live != liveOptionFields {
		t.Errorf("Options has %d live fields, committed count is %d", live, liveOptionFields)
	}
}

// TestDeprecatedOptionsAreInert fails when program code (any non-test Go
// file of the module) reads or writes an inert option through a selector,
// such as opts.MaxStreams. Naming one as a composite-literal key, as the
// benchmark still does, sets a value nothing reads and passes.
func TestDeprecatedOptionsAreInert(t *testing.T) {
	inert := make(map[string]bool, len(inertOptions))
	for _, name := range inertOptions {
		inert[name] = true
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && inert[sel.Sel.Name] {
				t.Errorf("%s: .%s: the option is inert, and program code must not use it", fset.Position(sel.Sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found under the module root")
	}
}
