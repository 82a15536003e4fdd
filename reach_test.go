package repro_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestReachability is the executable form of ROADMAP aim 2's deletion rule:
// every non-test top-level func and type under internal/ is reached from
// some main (cmd/, examples/, benchmark/), or it is named in reachAllow with
// the reason it stays. Everything lives under internal/, so nothing outside
// this repository can be a caller either. The table may only shrink: an
// entry that no longer covers an unreached declaration fails the test too.
//
// Reachability is the transitive closure of identifier references
// (go/types' Uses) from every main and init. A method is also reached when
// its receiver type is and the method set satisfies an interface that is
// itself reached, or any interface of the standard library (fmt, sort,
// encoding/json and friends call those without naming them).
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its standard-library imports from source")
	}
	dead, err := unreachedInternal(".")
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]int, len(reachAllow))
	for _, d := range dead {
		key, ok := d.allowedBy()
		if !ok {
			t.Errorf("%s:%d: %s (%d lines) is reached by no main: delete it, or add its file to reachAllow with a reason",
				d.file, d.line, d.name, d.lines)
			continue
		}
		covered[key]++
	}
	for key, reason := range reachAllow {
		if covered[key] == 0 {
			t.Errorf("reachAllow[%q] (%s) covers nothing unreached any more: remove the entry", key, reason)
		}
	}
}

// TestReachabilityGenericThroughInterface: a method of a generic type that a
// main calls only through an interface is reached, and so is what it calls.
// The graph once skipped generic types when matching interfaces, which made
// both read as unreached.
func TestReachabilityGenericThroughInterface(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"cmd/x/main.go": `package main

import "repro/internal/p"

func main() { p.New().Say() }
`,
		"internal/p/p.go": `package p

type Sayer interface{ Say() int }

type Box[T any] struct{ v T }

func (b *Box[T]) Say() int { return helper() }

func (b *Box[T]) Unused() {}

func helper() int { return 1 }

func New() Sayer { return &Box[int]{} }
`,
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []string{"examples", "benchmark"} {
		if err := os.Mkdir(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := unreachedInternal(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range dead {
		names = append(names, d.name)
	}
	if want := []string{"Box.Unused"}; !slices.Equal(names, want) {
		t.Fatalf("unreached %v, want %v", names, want)
	}
}

// Why a declaration no binary reaches may stay. There are exactly three
// reasons; anything else is deleted.
const (
	// Tests hold production code to it: a reference to compare against, a
	// checker of invariants, or the serial context of the determinism suites.
	oracle = "oracle"
	// It reproduces a model, section or schedule of the paper that no
	// command happens to drive.
	paperArtefact = "paper artefact"
	// ROADMAP item 6(a) schedules HYB as a format.
	pending6a = "pending ROADMAP item 6(a)"
)

// reachAllow is keyed by a file (every unreached declaration in it) or by
// "dir.Name" / "dir.Type.Method" for one declaration.
var reachAllow = map[string]string{
	"internal/sparse/convert.go":      oracle,
	"internal/sparse/direct.go":       oracle,
	"internal/sparse/transpose.go":    oracle,
	"internal/sparse/validate.go":     oracle,
	"internal/sparse.Vector.Validate": oracle,
	"internal/sparse.Vector.Dense":    oracle,
	"internal/sparse.Dense.At":        oracle,
	"internal/spgemm.FlopsUpperBound": oracle,
	"internal/spgemm.NNZUpperBound":   oracle,
	"internal/spgemm.Result.Dense":    oracle,
	"internal/telemetry/leak.go":      oracle,
	"internal/exec.Serial":            oracle,

	"internal/dnn/alexnet.go":        paperArtefact, // the introduction's AlexNet-on-CIFAR-10
	"internal/dnn/cifar10full.go":    paperArtefact, // §IV's Caffe cifar10_full baseline
	"internal/dnn/dataparallel.go":   paperArtefact, // §IV-B
	"internal/dnn/schedule.go":       paperArtefact, // Caffe's fixed / step / inv policies
	"internal/dnn.NewDropout":        paperArtefact, // AlexNet's head
	"internal/dnn.Network.ZeroGrads": paperArtefact, // dataparallel.go's replicas
	"internal/dnn.Network.NumParams": paperArtefact, // AlexNet's and cifar10_full's paper scale

	"internal/sparse/hyb.go": pending6a,
}

type unreached struct {
	dir, file, name string
	line, lines     int
}

func (d unreached) allowedBy() (string, bool) {
	for _, key := range []string{d.dir + "." + d.name, d.file} {
		if _, ok := reachAllow[key]; ok {
			return key, true
		}
	}
	return "", false
}

// reachPkg is one type-checked package of this repository.
type reachPkg struct {
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	err   error
}

// reachLoader type-checks repository packages itself, so that it keeps
// their Uses maps, and leaves the standard library to the source importer.
type reachLoader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg // by import path
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "repro/")
	if !ok {
		return l.std.Import(path)
	}
	p := l.load(rel)
	return p.pkg, p.err
}

func (l *reachLoader) load(dir string) *reachPkg {
	path := "repro/" + dir
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	p := &reachPkg{dir: dir}
	bp, err := build.ImportDir(filepath.Join(l.root, dir), 0)
	if err != nil {
		p.err = err
		return p
	}
	l.pkgs[path] = p
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.root, dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			p.err = err
			return p
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: l}
	p.pkg, p.err = conf.Check(path, l.fset, p.files, p.info)
	return p
}

// loadTree loads every directory under top that holds non-test Go files.
func (l *reachLoader) loadTree(top string) error {
	return filepath.WalkDir(filepath.Join(l.root, top), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(l.root, path)
		p := l.load(filepath.ToSlash(rel))
		if noGo := (*build.NoGoError)(nil); p.err != nil && !errors.As(p.err, &noGo) {
			return fmt.Errorf("%s: %w", rel, p.err)
		}
		return nil
	})
}

// reachGraph is the reference graph over package-level objects.
type reachGraph struct {
	ours  map[*types.Package]bool
	uses  map[types.Object][]types.Object     // declaration → what its source names
	anon  map[types.Object][]*types.Interface // declaration → interface literals inside it
	live  map[types.Object]bool
	queue []types.Object
	types []reachType  // reached concrete named types
	iface []reachIface // reached interfaces
}

// reachType is a reached concrete named type. A generic one cannot be
// checked against an interface without its instantiation, so it satisfies
// any interface it has a method of every name of, as a generic interface is
// satisfied.
type reachType struct {
	*types.TypeName
	generic bool
}

type reachIface struct {
	*types.Interface
	byName bool
}

// topLevel normalises a used object to the package-level declaration it
// belongs to in this repository, or nil.
func (g *reachGraph) topLevel(obj types.Object) types.Object {
	if obj == nil || obj.Pkg() == nil || !g.ours[obj.Pkg()] {
		return nil
	}
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		if o.IsField() || o.Parent() != o.Pkg().Scope() {
			return nil
		}
		return o.Origin()
	case *types.TypeName, *types.Const:
		if o.Parent() != o.Pkg().Scope() {
			return nil
		}
		return o
	}
	return nil
}

// record walks one declaration's syntax and stores what it references.
func (g *reachGraph) record(p *reachPkg, decl types.Object, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if u := g.topLevel(p.info.Uses[n]); u != nil {
				g.uses[decl] = append(g.uses[decl], u)
			}
		case *ast.InterfaceType:
			if it, ok := p.info.Types[n].Type.(*types.Interface); ok && it.NumMethods() > 0 {
				g.anon[decl] = append(g.anon[decl], it)
			}
		}
		return true
	})
}

// recvNamed returns the named type f is a method of, or nil for a function.
func recvNamed(f *types.Func) *types.Named {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func (g *reachGraph) mark(obj types.Object) {
	if obj == nil || g.live[obj] {
		return
	}
	g.live[obj] = true
	g.queue = append(g.queue, obj)
}

// satisfy marks the methods through which named type tn implements it. An
// interface that is generic or carries a type term (a constraint), or a type
// that is generic, cannot be checked without its instantiation, so there a
// type with a method of every name counts: an over-approximation, which can
// only keep code reachable.
func (g *reachGraph) satisfy(tn reachType, it reachIface) {
	ptr := types.NewPointer(tn.Type())
	if !it.byName && !tn.generic && !types.Implements(ptr, it.Interface) {
		return
	}
	var found []types.Object
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		f, ok := obj.(*types.Func)
		if !ok {
			return
		}
		found = append(found, g.topLevel(f))
	}
	for _, f := range found {
		g.mark(f)
	}
}

func (g *reachGraph) addInterface(it *types.Interface, byName bool) {
	if it.NumMethods() == 0 {
		return
	}
	ri := reachIface{it, byName || !it.IsMethodSet()}
	g.iface = append(g.iface, ri)
	for _, tn := range g.types {
		g.satisfy(tn, ri)
	}
}

func (g *reachGraph) run() {
	for len(g.queue) > 0 {
		obj := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		for _, u := range g.uses[obj] {
			g.mark(u)
		}
		for _, it := range g.anon[obj] {
			g.addInterface(it, false)
		}
		switch o := obj.(type) {
		case *types.Func:
			// A reached method keeps its receiver type.
			if n := recvNamed(o); n != nil {
				g.mark(g.topLevel(n.Origin().Obj()))
			}
		case *types.TypeName:
			if o.IsAlias() {
				continue
			}
			n, _ := o.Type().(*types.Named)
			generic := n != nil && n.TypeParams().Len() > 0
			if it, ok := o.Type().Underlying().(*types.Interface); ok {
				g.addInterface(it, generic)
				continue
			}
			rt := reachType{o, generic}
			g.types = append(g.types, rt)
			for _, it := range g.iface {
				g.satisfy(rt, it)
			}
		}
	}
}

// stdInterfaces collects every method-set interface declared by the
// packages imported, directly or not, from this repository's packages.
func (g *reachGraph) stdInterfaces(pkgs map[string]*reachPkg) {
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		if g.ours[p] {
			return
		}
		sc := p.Scope()
		for _, name := range sc.Names() {
			if tn, ok := sc.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
					g.addInterface(it, false)
				}
			}
		}
	}
	for _, p := range pkgs {
		visit(p.pkg)
	}
	g.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), false)
	// errors.Is, As and Unwrap find these through interface literals inside
	// their bodies, which no package scope lists; match them by name.
	for _, name := range []string{"Is", "As", "Unwrap"} {
		m := types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, nil, nil, false))
		g.addInterface(types.NewInterfaceType([]*types.Func{m}, nil).Complete(), true)
	}
}

// unreachedInternal loads every package of the repository at root and
// returns the funcs and types under internal/ that no main reaches.
func unreachedInternal(root string) ([]unreached, error) {
	// The source importer would otherwise run cgo for net and os/user.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false

	fset := token.NewFileSet()
	l := &reachLoader{root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*reachPkg{}}
	for _, top := range []string{"cmd", "examples", "benchmark", "internal"} {
		if err := l.loadTree(top); err != nil {
			return nil, err
		}
	}

	g := &reachGraph{
		ours: map[*types.Package]bool{},
		uses: map[types.Object][]types.Object{},
		anon: map[types.Object][]*types.Interface{},
		live: map[types.Object]bool{},
	}
	for _, p := range l.pkgs {
		g.ours[p.pkg] = true
	}
	type declared struct {
		obj  types.Object
		p    *reachPkg
		node ast.Node
	}
	var decls []declared
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					g.record(p, obj, d)
					decls = append(decls, declared{obj, p, d})
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main") {
						g.mark(obj)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							g.record(p, obj, s)
							decls = append(decls, declared{obj, p, s})
						case *ast.ValueSpec:
							for _, name := range s.Names {
								g.record(p, p.info.Defs[name], s)
							}
						}
					}
				}
			}
		}
	}
	g.stdInterfaces(l.pkgs)
	g.run()

	var dead []unreached
	for _, d := range decls {
		if g.live[d.obj] || !strings.HasPrefix(d.p.dir, "internal/") {
			continue
		}
		pos, end := fset.Position(d.node.Pos()), fset.Position(d.node.End())
		name := d.obj.Name()
		if f, ok := d.obj.(*types.Func); ok {
			if n := recvNamed(f); n != nil {
				name = n.Obj().Name() + "." + name
			}
		}
		rel, _ := filepath.Rel(root, pos.Filename)
		dead = append(dead, unreached{
			dir: d.p.dir, file: filepath.ToSlash(rel), name: name,
			line: pos.Line, lines: end.Line - pos.Line + 1,
		})
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].file != dead[j].file {
			return dead[i].file < dead[j].file
		}
		return dead[i].line < dead[j].line
	})
	return dead, nil
}
