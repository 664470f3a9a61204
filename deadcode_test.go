package locec_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the declarations under internal/ that no non-test
// file reaches and that stay anyway, each with its reason. Keys are
// "pkg.Name" or "pkg.Type.Method", pkg being the directory under internal/.
var testOnlyAllowed = map[string]string{
	"core.VerifyIncremental":       "the incremental oracle: incremental ≡ frozen from-scratch rerun",
	"core.diffResults":             "the incremental oracle's comparison",
	"core.Pipeline.RunFrozen":      "the incremental oracle's from-scratch rerun",
	"community.EdgeBetweenness":    "the reference TestEdgeBetweennessMatchesReference holds GirvanNewman's Brandes to",
	"gbdt.Model.LeafValues":        "the reference LeafValuesInto is held to",
	"nn.Conv2D.wIdx":               "weight indexing of the naive convolution reference",
	"graph.FromEdges":              "the test graph constructor",
	"router.FaultTransport":        "fault seam of the router fault matrix",
	"router.FaultTransport.Calls":  "fault seam of the router fault matrix",
	"router.FaultTransport.Kill":   "fault seam of the router fault matrix",
	"router.FaultTransport.Revive": "fault seam of the router fault matrix",
	"wal.NewMemFS":                 "fault seam of the WAL crash matrix",
	"wal.MemFS.Crash":              "fault seam of the WAL crash matrix",
	"wal.MemFS.FailAfter":          "fault seam of the WAL crash matrix",
	"wal.MemFS.Ops":                "fault seam of the WAL crash matrix",
}

// testSupportDirs are the packages only tests may import. Their
// declarations are not scanned and their files call nothing.
var testSupportDirs = []string{"internal/bench", "internal/testutil"}

// runtimeMethods are the stdlib interface methods the runtime or the
// standard library calls on a value without a selector in this module.
var runtimeMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// deadScan is one parse of the repository: every declaration under
// internal/ and, per source (a declaration, or a caller file outside
// internal/), the names it refers to.
type deadScan struct {
	decls     []*scanDecl
	sources   []*scanSource
	ifaces    map[string]bool // method names some interface in the module declares
	importers []string        // non-test files importing a test-support package
}

type scanDecl struct {
	key   string // pkg.Name or pkg.Type.Method
	token string // dir + "." + Name for package-level names, "." + Method for methods
	pos   string
	src   *scanSource // the declaration's own body
	dead  bool
}

// scanSource is a body of code whose references count while it is live:
// a top-level declaration, or a whole caller file outside internal/.
type scanSource struct {
	refs map[string]bool // dir.Name for package-level names, .Name for selected names
	decl *scanDecl       // nil for a caller that is always live
}

// TestNoTestOnlyDeclarations fails on a top-level func, method, type, var
// or const declared in a non-test file under internal/ that no non-test
// file of the repository reaches. Callers are the non-test files of the
// root module and of benchmark/ (its own module, which go build ./... does
// not compile). A reference from inside a declaration's own body does not
// count, and a declaration only dead code refers to is dead too: the scan
// iterates to a fixed point. A method counts as called when any caller
// selects its name, an interface in the module declares it, or it is a
// stdlib interface method (runtimeMethods). Declarations that stay test-only
// on purpose are in testOnlyAllowed; a stale entry fails the test.
func TestNoTestOnlyDeclarations(t *testing.T) {
	s := scanRepository(t)
	for _, f := range s.importers {
		t.Errorf("%s imports a test-support package (%s)", f, strings.Join(testSupportDirs, ", "))
	}
	if len(s.decls) < 900 {
		t.Fatalf("scanned only %d declarations; is the test running from the repository root?", len(s.decls))
	}
	s.markDead()
	byKey := map[string]*scanDecl{}
	var dead []string
	for _, d := range s.decls {
		byKey[d.key] = d
		if d.dead {
			if _, ok := testOnlyAllowed[d.key]; !ok {
				dead = append(dead, fmt.Sprintf("%s: %s", d.pos, d.key))
			}
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or add it to testOnlyAllowed with a reason", d)
	}
	for _, key := range slices.Sorted(maps.Keys(testOnlyAllowed)) {
		switch d, reason := byKey[key], testOnlyAllowed[key]; {
		case reason == "":
			t.Errorf("testOnlyAllowed[%q] has no reason", key)
		case d == nil:
			t.Errorf("testOnlyAllowed lists %s, which is no longer declared", key)
		case !d.dead:
			t.Errorf("testOnlyAllowed lists %s, which a non-test file now reaches", key)
		}
	}
	t.Logf("%d declarations, %d allowed test-only", len(s.decls), len(testOnlyAllowed))
}

// markDead iterates to a fixed point: a declaration is dead when no live
// source other than its own body refers to it.
func (s *deadScan) markDead() {
	for changed := true; changed; {
		changed = false
		refs := map[string]int{}
		for _, src := range s.sources {
			if src.decl != nil && src.decl.dead {
				continue
			}
			for r := range src.refs {
				refs[r]++
			}
		}
		for _, d := range s.decls {
			if d.dead {
				continue
			}
			n := refs[d.token]
			if d.src.refs[d.token] {
				n--
			}
			if n > 0 || (d.token[0] == '.' && (s.ifaces[d.token[1:]] || runtimeMethods[d.token[1:]])) {
				continue
			}
			d.dead, changed = true, true
		}
	}
}

// scanRepository parses every Go file of the repository outside dot
// directories and testdata.
func scanRepository(t *testing.T) *deadScan {
	t.Helper()
	s := &deadScan{ifaces: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, ex := range testSupportDirs {
			if dir == ex || strings.HasPrefix(dir, ex+"/") {
				return nil
			}
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		s.addFile(fset, path, dir, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// addFile records f's declarations (under internal/) or treats the whole
// file as one always-live caller (anywhere else).
func (s *deadScan) addFile(fset *token.FileSet, path, dir string, f *ast.File) {
	imports := map[string]string{} // local name → package directory
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		for _, ex := range testSupportDirs {
			if p == "locec/"+ex || strings.HasPrefix(p, "locec/"+ex+"/") {
				s.importers = append(s.importers, path)
			}
		}
		name := p[strings.LastIndexByte(p, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = strings.TrimPrefix(p, "locec/")
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if it, ok := n.(*ast.InterfaceType); ok {
			for _, m := range it.Methods.List {
				for _, name := range m.Names {
					s.ifaces[name.Name] = true
				}
			}
		}
		return true
	})
	if !strings.HasPrefix(dir, "internal/") {
		s.sources = append(s.sources, &scanSource{refs: collectRefs(f, dir, imports)})
		return
	}
	pkg := strings.TrimPrefix(dir, "internal/")
	add := func(key, tok string, pos token.Pos, body ast.Node) {
		src := &scanSource{refs: collectRefs(body, dir, imports)}
		d := &scanDecl{key: key, token: tok, pos: fset.Position(pos).String(), src: src}
		src.decl = d
		s.decls = append(s.decls, d)
		s.sources = append(s.sources, src)
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			switch {
			case decl.Recv != nil:
				// The receiver names its own type: not a reference.
				recv := decl.Recv
				decl.Recv = nil
				add(pkg+"."+recvName(recv)+"."+decl.Name.Name, "."+decl.Name.Name, decl.Pos(), decl)
				decl.Recv = recv
			case decl.Name.Name == "init" || decl.Name.Name == "main":
				s.sources = append(s.sources, &scanSource{refs: collectRefs(decl, dir, imports)})
			default:
				add(pkg+"."+decl.Name.Name, dir+"."+decl.Name.Name, decl.Pos(), decl)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(pkg+"."+spec.Name.Name, dir+"."+spec.Name.Name, spec.Pos(), spec)
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						if name.Name == "_" {
							s.sources = append(s.sources, &scanSource{refs: collectRefs(spec, dir, imports)})
							continue
						}
						add(pkg+"."+name.Name, dir+"."+name.Name, name.Pos(), spec)
					}
				}
			}
		}
	}
}

// recvName is the type name of a method receiver: T in (t T), (t *T) and
// (t *T[K]).
func recvName(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// collectRefs returns the names body refers to: dir.Name for a bare
// identifier (a same-package name, or something shadowing one), imported
// dir.Name for a qualified identifier, and .Name for every selected name.
func collectRefs(body ast.Node, dir string, imports map[string]string) map[string]bool {
	refs := map[string]bool{}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			refs["."+n.Sel.Name] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					refs[p+"."+n.Sel.Name] = true
				}
			}
			ast.Inspect(n.X, visit) // the selected name is not a bare identifier
			return false
		case *ast.Ident:
			refs[dir+"."+n.Name] = true
		}
		return true
	}
	ast.Inspect(body, visit)
	return refs
}
