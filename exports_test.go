package qcomposite

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const modulePath = "github.com/secure-wsn/qcomposite"

// exportAllowlist names the exported internal/ functions and methods that
// need no caller outside test files, keyed as the gate reports them. It
// holds three kinds of entry only.
var exportAllowlist = map[string]string{
	// Methods the standard library calls through its own interfaces, on any
	// receiver.
	"method String":        "fmt.Stringer",
	"method Error":         "error",
	"method Unwrap":        "errors.Unwrap",
	"method Is":            "errors.Is",
	"method MarshalJSON":   "json.Marshaler",
	"method UnmarshalJSON": "json.Unmarshaler",
	"method ServeHTTP":     "http.Handler",

	// Test-support packages: their functions exist for tests. Their calls
	// into other packages still count as references.
	"internal/experiment/stattest": "statistical acceptance gates shared by test files",
	"internal/faultinject":         "fault injectors shared by test files",

	// Cross-package test references: another package's tests use them.
	"internal/channel.UniformHeterOnOff":        "wsn tests deploy one-class heterogeneous channels",
	"internal/graph.Intersect":                  "the root coupling-chain test intersects the coupled graphs with G(n, p)",
	"internal/graph.Builder.Complete":           "graphalgo tests build complete graphs",
	"internal/graph.Undirected.Edges":           "graphalgo tests replay a graph's edge list",
	"internal/graph.Undirected.DegreeHistogram": "wsn tests check the streamed degree counts and min-degree statistics against it",
	"internal/keys.NewRing":                     "wsn tests plant rings holding out-of-pool keys",
	"internal/keys.Ring.SharedWith":             "wsn tests check link keys against the rings' shared keys",
	"internal/randgraph.Geometric":              "channel's disk pins compare the disk channel with it",
	"internal/stats.ChiSquare":                  "stattest's tests check Pearson statistics against it",
	"internal/theory.HeteroConnProbability":     "the stattest heterogeneous gate predicts with it",
	"internal/wsn.Network.FailedLinkCount":      "adversary campaign tests count jammed links",
	"internal/wsn.Network.Links":                "adversary tests check Capture against it; root benchmarks time link materialization",
}

// TestInternalExportsHaveCallers is the gate against regrowth of dead API: an
// exported function or method under internal/ must be referenced from a
// non-test file of the root module, examples/ or bench/, or be on
// exportAllowlist. The non-test files are type-checked (the standard library
// from source), so a method is keyed by its receiver type: a call of
// keys.Ring.Contains does not keep a Contains method of another type alive.
// A call through an interface method keeps alive the methods of every type
// that implements that interface.
func TestInternalExportsHaveCallers(t *testing.T) {
	// The source importer reads build.Default; without cgo it type-checks
	// the pure-Go variants of net and os/user instead of running cgo.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset, pkgs, err := checkModule()
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		pos token.Position
		fn  *types.Func
	}
	decls := map[string]decl{}
	refs := map[string]bool{}
	var ifaceRefs []*types.Func // interface methods some file calls
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				self := ""
				if fn, ok := d.(*ast.FuncDecl); ok {
					obj := p.info.Defs[fn.Name].(*types.Func)
					self = funcKey(obj)
					if fn.Name.IsExported() && strings.HasPrefix(p.dir, "internal/") && exportAllowlist[p.dir] == "" {
						decls[self] = decl{fset.Position(fn.Pos()), obj}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					fn = fn.Origin()
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceRefs = append(ifaceRefs, fn)
					} else if key := funcKey(fn); key != self {
						refs[key] = true
					}
					return true
				})
			}
		}
	}
	var dead []string
	for key, d := range decls {
		method := d.fn.Type().(*types.Signature).Recv() != nil
		if refs[key] || exportAllowlist[key] != "" ||
			method && (exportAllowlist["method "+d.fn.Name()] != "" || implementsCalled(d.fn, ifaceRefs)) {
			continue
		}
		dead = append(dead, d.pos.String()+": "+key)
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("exported but only tests call it: %s", d)
	}
}

// funcKey names a function "dir.Name" and a method "dir.Type.Name", dir
// being its package's directory in the repository.
func funcKey(fn *types.Func) string {
	dir := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), modulePath), "/")
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return dir + "." + fn.Name()
	}
	return dir + "." + receiverNamed(recv.Type()).Obj().Name() + "." + fn.Name()
}

// receiverNamed is the named type of a method receiver, pointer or not.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin()
}

// implementsCalled reports whether method's receiver type implements the
// interface of a called interface method of the same name, so the call may
// dispatch to method.
func implementsCalled(method *types.Func, ifaceRefs []*types.Func) bool {
	named := receiverNamed(method.Type().(*types.Signature).Recv().Type())
	for _, call := range ifaceRefs {
		if call.Name() != method.Name() {
			continue
		}
		iface := call.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// checkedPackage is one type-checked directory of non-test Go files.
type checkedPackage struct {
	dir   string
	files []*ast.File
	info  *types.Info
}

// moduleImporter type-checks the repository's packages from their non-test
// files on first import, and the standard library from source. The bench/
// module's path is modulePath + "/bench", so every import path in the
// repository maps onto its directory.
type moduleImporter struct {
	fset    *token.FileSet
	std     types.Importer
	files   map[string][]string // dir → its non-test .go files
	checked map[string]*types.Package
	pkgs    []*checkedPackage
}

// checkModule type-checks every package of the repository: the root
// module, examples/ and bench/.
func checkModule() (*token.FileSet, []*checkedPackage, error) {
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		files:   map[string][]string{},
		checked: map[string]*types.Package{},
	}
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			return err
		}
		m.files[dir] = append(m.files[dir], p)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	dirs := make([]string, 0, len(m.files))
	for dir := range m.files {
		dirs = append(dirs, dir)
	}
	slices.Sort(dirs)
	for _, dir := range dirs {
		if _, err := m.check(dir); err != nil {
			return nil, nil, err
		}
	}
	return fset, m.pkgs, nil
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == modulePath {
		return m.check(".")
	}
	if rel, ok := strings.CutPrefix(path, modulePath+"/"); ok {
		return m.check(rel)
	}
	return m.std.Import(path)
}

// check type-checks the package in dir once.
func (m *moduleImporter) check(dir string) (*types.Package, error) {
	if pkg, ok := m.checked[dir]; ok {
		return pkg, nil
	}
	p := &checkedPackage{dir: dir, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range m.files[dir] {
		f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	path := modulePath
	if dir != "." {
		path += "/" + dir
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	m.checked[dir] = pkg
	m.pkgs = append(m.pkgs, p)
	return pkg, nil
}
