package qcomposite

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "github.com/secure-wsn/qcomposite"

// exportAllowlist names the exported internal/ functions and methods that
// need no caller outside test files, keyed as the gate reports them. It
// holds three kinds of entry only.
var exportAllowlist = map[string]string{
	// Interface methods: the standard library calls them by name.
	"method String":        "fmt.Stringer",
	"method Error":         "error",
	"method Unwrap":        "errors.Unwrap",
	"method MarshalJSON":   "json.Marshaler",
	"method UnmarshalJSON": "json.Unmarshaler",
	"method ServeHTTP":     "http.Handler",

	// Test-support packages: their functions exist for tests. Their calls
	// into other packages still count as references.
	"internal/experiment/stattest": "statistical acceptance gates shared by test files",
	"internal/faultinject":         "fault injectors shared by test files",

	// Cross-package test references: another package's tests use them.
	"internal/channel.UniformHeterOnOff":    "wsn tests deploy one-class heterogeneous channels",
	"internal/graph.Intersect":              "the root coupling-chain test intersects the coupled graphs with G(n, p)",
	"method Complete":                       "graphalgo tests build complete graphs with graph.Builder.Complete",
	"method Edges":                          "graphalgo tests replay a graph's edge list",
	"internal/keys.NewRing":                 "wsn tests plant rings holding out-of-pool keys",
	"method SharedWith":                     "wsn tests check link keys against the rings' shared keys",
	"internal/randgraph.Geometric":          "channel's disk pins compare the disk channel with it",
	"internal/stats.ChiSquare":              "stattest's tests check Pearson statistics against it",
	"internal/theory.HeteroConnProbability": "the stattest heterogeneous gate predicts with it",
	"method FailedLinkCount":                "adversary campaign tests count jammed links",
}

// TestInternalExportsHaveCallers is the gate against regrowth of dead API: an
// exported function or method under internal/ must be referenced from a
// non-test file of the root module, examples/ or bench/, or be on
// exportAllowlist. References are matched by name: a package-level function
// by its package and name, a method by its name alone.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string]token.Position{} // "dir.Name" or "method Name"
	refs := map[string]bool{}
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
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		collectExports(fset, f, dir, decls)
		collectRefs(f, dir, refs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for key, pos := range decls {
		if !refs[key] && exportAllowlist[key] == "" {
			dead = append(dead, pos.String()+": "+key)
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("exported but only tests call it: %s", d)
	}
}

// collectExports records the exported functions and methods a file under
// internal/ declares.
func collectExports(fset *token.FileSet, f *ast.File, dir string, decls map[string]token.Position) {
	if !strings.HasPrefix(dir, "internal/") || exportAllowlist[dir] != "" {
		return
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || !fn.Name.IsExported() {
			continue
		}
		decls[declKey(dir, fn)] = fset.Position(fn.Pos())
	}
}

// declKey is the key a function declaration is reported and allowlisted
// under.
func declKey(dir string, fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		return "method " + fn.Name.Name
	}
	return dir + "." + fn.Name.Name
}

// collectRefs records every function or method name a file uses outside the
// declaration it names, so recursion is not a caller.
func collectRefs(f *ast.File, dir string, refs map[string]bool) {
	imports := map[string]string{} // local name → directory in the module
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		rel, ok := strings.CutPrefix(p, modulePath+"/")
		if !ok {
			continue
		}
		name := path.Base(rel)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = rel
	}
	for _, d := range f.Decls {
		var node ast.Node = d
		self := ""
		if fn, ok := d.(*ast.FuncDecl); ok {
			if fn.Body == nil {
				continue
			}
			node, self = fn.Body, declKey(dir, fn)
		}
		refsIn(node, dir, imports, func(key string) {
			if key != self {
				refs[key] = true
			}
		})
	}
}

// refsIn adds the key of every name node uses: "dir.Name" for a package-level
// name, "method Name" for a selector on a value.
func refsIn(node ast.Node, dir string, imports map[string]string, add func(string)) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if pkg, ok := imports[x.Name]; ok {
					add(pkg + "." + n.Sel.Name)
					return false
				}
			}
			add("method " + n.Sel.Name)
			refsIn(n.X, dir, imports, add)
			return false
		case *ast.Ident:
			add(dir + "." + n.Name)
		}
		return true
	})
}
