package scionmpr_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadCodeKeep lists the declarations that no non-test code references
// but that stay on purpose, keyed as the gate prints them
// ("pkg.Name" or "pkg.Type.Method"), each with its reason.
var deadCodeKeep = map[string]string{
	// The public API: downstream users build topologies and address hosts
	// through these without importing internal packages.
	"scionmpr/scion.Link":                 "public API: topology link type",
	"scionmpr/scion.PeerOf":               "public API: relationship constant for building topologies",
	"scionmpr/scion.LoadTopology":         "public API: the way to load real CAIDA AS-relationship data (DESIGN's substitution table)",
	"scionmpr/scion.Network.RestoreLink":  "public API: heals a link FailLink failed, the end-to-end reinstatement sequence",
	"scionmpr/scion.Network.RemoteLookup": "DESIGN extension: measures Table 1's wire cost of a remote segment lookup",

	"scionmpr/internal/telemetry.DecodeEvent":   "decoder of the trace JSONL format; CI fuzzes it (FuzzTraceDecode)",
	"scionmpr/internal/trust.Infra.VerifyChain": "DESIGN's CP-PKI chain check (TRC -> AS certificate)",

	"scionmpr/internal/slayers.SCMPTypeRevokedLink":     "wire-spec SCMP type code",
	"scionmpr/internal/slayers.SCMPTypeBadMAC":          "wire-spec SCMP type code",
	"scionmpr/internal/slayers.SCMPTypeDestUnreachable": "wire-spec SCMP type code",
	"scionmpr/internal/slayers.SCION.IncPath":           "struct-header ingress step of the router oracle (internal/dataplane/router_reference_test.go), kept verbatim; the engine advances CurrHF through RawPath",
	"scionmpr/internal/slayers.SCION.AtDestination":     "struct-header destination test of the same router oracle; the engine asks RawPath",
	"scionmpr/internal/slayers.SCMP.SetWalkIdx":         "SCMP walk step of the same router oracle, which decodes at every router; the engine steps back through RawWalk",

	"scionmpr/internal/experiments.ChurnResult.CheckOrdering": "the paper-shape check on churn results: diversity no worse than baseline, both better than BGP",

	"scionmpr/internal/combinator.Combine":         "public one-pair core-path construction (§2.2) that AllPaths runs in bulk; pinned to the reference in tests",
	"scionmpr/internal/combinator.Shortcut":        "public one-pair shortcut construction (§2.2) that AllPaths runs in bulk; pinned to the reference in tests",
	"scionmpr/internal/combinator.PeeringShortcut": "public one-pair peering-shortcut construction (§2.2) that AllPaths runs in bulk; pinned to the reference in tests",

	"scionmpr/internal/core.Diversity.HistoryCounter": "test hook into the Link History Table",

	"scionmpr/benchmark.smokeScale": "benchmark module: its smoke tests run every workload at this scale",
}

// TestNoDeadCode fails on any package-level func, type, const or var, and
// any method, that no non-test file of the root module (commands and
// examples included) or of the benchmark module references. Methods that
// satisfy an interface are skipped: a call through the interface reaches
// them. References from inside a declaration's own body (and, for a type,
// from its own methods) do not count. deadCodeKeep lists the exceptions.
func TestNoDeadCode(t *testing.T) {
	// Module packages are type-checked from source, the standard library
	// is read from the build cache's export data.
	byPath := map[string]*listedPackage{}
	exports := map[string]string{}
	var pkgs []*listedPackage
	for _, p := range append(goListPackages(t, "."), goListPackages(t, "benchmark")...) {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else if byPath[p.ImportPath] == nil {
			byPath[p.ImportPath] = p
			pkgs = append(pkgs, p)
		}
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{
		checked: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(exports[path])
		}),
	}
	var order []*listedPackage
	visited := map[string]bool{}
	var visit func(p *listedPackage)
	visit = func(p *listedPackage) {
		if visited[p.ImportPath] {
			return
		}
		visited[p.ImportPath] = true
		for _, dep := range p.Imports {
			if q, ok := byPath[dep]; ok {
				visit(q)
			}
		}
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}

	type checkedPackage struct {
		pkg   *types.Package
		info  *types.Info
		files []*ast.File
	}
	var checked []checkedPackage
	for _, p := range order {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = pkg
		checked = append(checked, checkedPackage{pkg, info, files})
	}

	// Declarations and the source extents whose references do not count.
	type extent struct{ pos, end token.Pos }
	own := map[types.Object][]extent{}
	var decls []types.Object
	declare := func(obj types.Object, pos, end token.Pos) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		own[obj] = append(own[obj], extent{pos, end})
		decls = append(decls, obj)
	}
	for _, c := range checked {
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := c.info.Defs[d.Name]
					if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
						continue
					}
					declare(obj, d.Pos(), d.End())
					if d.Recv != nil {
						if named := receiverNamed(obj); named != nil {
							tn := named.Obj()
							own[tn] = append(own[tn], extent{d.Pos(), d.End()})
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(c.info.Defs[s.Name], s.Pos(), s.End())
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declare(c.info.Defs[n], s.Pos(), s.End())
							}
						}
					}
				}
			}
		}
	}

	live := map[types.Object]bool{}
	for _, c := range checked {
		for id, obj := range c.info.Uses {
			obj = origin(obj)
			exts, ok := own[obj]
			if !ok || live[obj] {
				continue
			}
			inside := false
			for _, e := range exts {
				if id.Pos() >= e.pos && id.Pos() < e.end {
					inside = true
					break
				}
			}
			if !inside {
				live[obj] = true
			}
		}
	}

	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	for _, c := range checked {
		ifaces = collectInterfaces(c.pkg, seen, ifaces...)
		for _, tv := range c.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	keys := map[string]bool{}
	var dead []string
	for _, obj := range decls {
		key := objectKey(obj)
		keys[key] = true
		if live[obj] {
			if _, kept := deadCodeKeep[key]; kept {
				t.Errorf("%s is on the keep-list but non-test code references it; drop it from deadCodeKeep", key)
			}
			continue
		}
		if fn, ok := obj.(*types.Func); ok && satisfiesInterface(fn, ifaces) {
			continue
		}
		if _, kept := deadCodeKeep[key]; kept {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s: %s", fset.Position(obj.Pos()), key))
	}
	for key := range deadCodeKeep {
		if !keys[key] {
			t.Errorf("keep-list entry %s names no declaration", key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declarations that no non-test code references (delete them, or add them to deadCodeKeep with a reason):\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

type listedPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	Export     string
	GoFiles    []string
	Imports    []string
}

// goListPackages lists the packages of the module under dir and all their
// dependencies, with export data for each.
func goListPackages(t *testing.T, dir string) []*listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// moduleImporter resolves module packages to the ones type-checked here and
// everything else through std.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiverNamed returns the named receiver type of a method, or nil.
func receiverNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
}

// objectKey names a declaration as deadCodeKeep does.
func objectKey(obj types.Object) string {
	if named := receiverNamed(obj); named != nil {
		return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// collectInterfaces appends the non-empty method-set interfaces declared
// at package level in pkg and everything it imports.
func collectInterfaces(pkg *types.Package, seen map[*types.Package]bool, acc ...*types.Interface) []*types.Interface {
	if seen[pkg] {
		return acc
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			acc = append(acc, it)
		}
	}
	for _, dep := range pkg.Imports() {
		acc = collectInterfaces(dep, seen, acc...)
	}
	return acc
}

// satisfiesInterface reports whether fn is a method through which its
// receiver type satisfies some interface that declares a method of the
// same name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	named := receiverNamed(fn)
	if named == nil {
		return false
	}
	ptr := types.NewPointer(named)
	mset := types.NewMethodSet(ptr)
	for _, it := range ifaces {
		names, declared := map[string]bool{}, false
		for i := 0; i < it.NumMethods(); i++ {
			names[it.Method(i).Name()] = true
			declared = declared || it.Method(i).Name() == fn.Name()
		}
		if !declared {
			continue
		}
		if named.TypeParams().Len() == 0 && it.IsMethodSet() {
			if types.Implements(ptr, it) {
				return true
			}
			continue
		}
		// Generic receivers and constraint interfaces: match by name.
		for i := 0; i < mset.Len(); i++ {
			delete(names, mset.At(i).Obj().Name())
		}
		if len(names) == 0 {
			return true
		}
	}
	return false
}
