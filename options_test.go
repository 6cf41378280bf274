package davix

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// optionFields is the committed size of the client's option surface: every
// field of Options doubles the configurations a test has to consider. A
// change that adds a field raises this count in the same diff, where review
// sees it; a change that removes one lowers it.
const optionFields = 19

// inertOptions are the Options fields the client ignores: each is marked
// Deprecated and stays only while the benchmark still sets it. No program
// code reads them (TestDeprecatedOptionsAreInert).
var inertOptions = []string{"PrefetchDepth", "VectorParallelism", "WalkParallelism", "UploadParallelism", "MaxStreams"}

// liveOptionFields is how many fields of Options the client acts on.
const liveOptionFields = 14

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
	im := checkModule(t)
	opts := im.pkgs[modulePath+"/internal/core"].Scope().Lookup("Options").Type().Underlying().(*types.Struct)
	for i := range opts.NumFields() {
		if f := opts.Field(i); slices.Contains(inertOptions, f.Name()) {
			for _, pos := range im.selected[f] {
				t.Errorf("%s: .%s: the option is inert, and program code must not use it", im.fset.Position(pos), f.Name())
			}
		}
	}
}

// optionStructs are the option structs whose every field must be used by a
// program other than the package that declares it: a command, an example,
// the benchmark, or another package of the module. A field only tests set
// is a knob no deployment turns, and becomes a constant.
var optionStructs = []struct{ pkg, name string }{
	{"internal/core", "Options"},
	{"internal/core", "RetryPolicy"},
	{"internal/pool", "Options"},
	{"internal/httpserv", "Options"},
	{"internal/httpserv", "Limits"},
	{"internal/fed", "Options"},
}

// programlessOptions exempts the fields no program uses yet, each with the
// reason it stays settable.
var programlessOptions = map[string]string{
	"core.Options.TLS":             "a deployment setting: the client's https transport, which no in-module program serves",
	"core.Options.Retry":           "the client half of the gateway's Retry-After contract; whether a program sets it is ROADMAP item 15's open decision",
	"core.RetryPolicy.Attempts":    "part of Options.Retry",
	"core.RetryPolicy.BaseBackoff": "part of Options.Retry",
	"core.RetryPolicy.CapBackoff":  "part of Options.Retry",
	"httpserv.Options.S3Secrets":   "the gateway's SigV4 verifier, the reference the client's signer is tested against",
}

// srcImporter type-checks the module's packages from source, each once,
// and takes the standard library from its export data. A field's uses by
// packages other than its own are recorded in uses as the set of their
// paths, and every selector of a field (x.F, its own package's included)
// in selected.
type srcImporter struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*types.Package
	uses     map[*types.Var]map[string]bool
	selected map[*types.Var][]token.Pos
}

const modulePath = "godavix"

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return im.std.Import(path)
	}
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	dir := "." + strings.TrimPrefix(path, modulePath)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, len(bp.GoFiles))
	for i, name := range bp.GoFiles {
		if files[i], err = parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution); err != nil {
			return nil, err
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := (&types.Config{Importer: im}).Check(path, im.fset, files, info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	for _, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
			if im.uses[v] == nil {
				im.uses[v] = map[string]bool{}
			}
			im.uses[v][path] = true
		}
	}
	for expr, sel := range info.Selections {
		if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
			im.selected[v] = append(im.selected[v], expr.Sel.Pos())
		}
	}
	return pkg, nil
}

var (
	moduleOnce    sync.Once
	moduleChecked *srcImporter
	moduleErr     error
)

// checkModule type-checks every non-test package of the module, once for
// all the tests that ask.
func checkModule(t *testing.T) *srcImporter {
	t.Helper()
	moduleOnce.Do(func() {
		im := &srcImporter{
			fset:     token.NewFileSet(),
			std:      importer.Default(),
			pkgs:     map[string]*types.Package{},
			uses:     map[*types.Var]map[string]bool{},
			selected: map[*types.Var][]token.Pos{},
		}
		moduleErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			_, err = im.Import(strings.TrimSuffix(modulePath+"/"+filepath.ToSlash(path), "/."))
			if none := (*build.NoGoError)(nil); errors.As(err, &none) {
				return nil // a directory of test files or data only
			}
			return err
		})
		moduleChecked = im
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleChecked
}

// TestEveryOptionHasAProgram type-checks every non-test package of the
// module and fails on a field of an optionStructs struct that no package
// but its own uses, unless programlessOptions names it with a reason.
func TestEveryOptionHasAProgram(t *testing.T) {
	im := checkModule(t)
	seen := map[string]bool{}
	for _, s := range optionStructs {
		pkg := im.pkgs[modulePath+"/"+s.pkg]
		if pkg == nil {
			t.Fatalf("package %s was not checked", s.pkg)
		}
		obj := pkg.Scope().Lookup(s.name)
		if obj == nil {
			t.Fatalf("%s.%s does not exist", s.pkg, s.name)
		}
		st := obj.Type().Underlying().(*types.Struct)
		for i := range st.NumFields() {
			f := st.Field(i)
			key := pkg.Name() + "." + s.name + "." + f.Name()
			_, allowed := programlessOptions[key]
			seen[key] = true
			switch {
			case len(im.uses[f]) == 0 && !allowed:
				t.Errorf("%s: no program outside %s sets or reads it; make it a constant, or have a program use it", key, s.pkg)
			case len(im.uses[f]) > 0 && allowed:
				t.Errorf("%s is used by %v; drop it from programlessOptions", key, slices.Sorted(maps.Keys(im.uses[f])))
			}
		}
	}
	for key := range programlessOptions {
		if !seen[key] {
			t.Errorf("programlessOptions names %s, which is not a field of an option struct", key)
		}
	}
}
