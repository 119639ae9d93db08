//go:build reach

// The reachability ratchet (PR 18): nothing ships in internal/ that no
// program can run. Type-checks every non-test file of the module and of
// bench/ from source (stdlib only: go/parser + go/types + the source
// importer, which type-checks the standard library too: seconds, not
// milliseconds, and it reads two modules' source trees, hence the build tag
// and its own CI step) and fails listing every top-level func, method, type or var in internal/ that
// is not reachable from a program the repo builds (cmd/*, examples/*,
// bench/) or from the root package — and, since PR 24, every request type
// with a row in rpc/rows.go that no such code names: a frame the server
// answers and no program sends.
//
//	go test -tags reach -run TestInternalReachable .
package farmer_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names what is kept although no program reaches it. Every
// entry is one func or method with its reason; an entry is also a root,
// so what it alone uses stays with it. An entry that a program has come
// to reach, or that no longer exists, fails the test as stale.
var reachAllow = map[string]string{
	// Exported methods of types the root package aliases: public API, kept
	// although only tests call them today.
	"core.Model.DirtyFiles":               "public API: farmer.Model",
	"core.Model.Config":                   "public API: farmer.Model",
	"core.Model.Degree":                   "public API: farmer.Model",
	"core.Model.Vector":                   "public API: farmer.Model",
	"core.Model.ResetWindow":              "public API: farmer.Model",
	"core.Model.WindowTail":               "public API: farmer.Model",
	"core.ShardedModel.WindowTail":        "public API: farmer.ShardedModel",
	"core.ShardedModel.PrimeWindow":       "public API: farmer.ShardedModel",
	"core.ShardedModel.Config":            "public API: farmer.ShardedModel",
	"core.ShardedModel.Shards":            "public API: farmer.ShardedModel",
	"core.ShardedModel.Partitioner":       "public API: farmer.ShardedModel",
	"core.ShardedModel.FeedTraceParallel": "public API: farmer.ShardedModel",
	"core.ShardedModel.Degree":            "public API: farmer.ShardedModel",
	"core.ShardedModel.Vector":            "public API: farmer.ShardedModel",
	"core.ShardedModel.ResetWindow":       "public API: farmer.ShardedModel",
	"core.EventTap.DroppedShard":          "public API: farmer.EventTap",
	"core.EventTap.Depth":                 "public API: farmer.EventTap",
	"core.EventTap.Depths":                "public API: farmer.EventTap",
	"trace.Record.HasPath":                "public API: farmer.Record",
	"trace.Record.Base":                   "public API: farmer.Record",
	"trace.Trace.Validate":                "public API: farmer.Trace",
	"trace.Trace.Clone":                   "public API: farmer.Trace",
	"trace.Trace.Slice":                   "public API: farmer.Trace",
	"kvstore.Store.Delete":                "public API: farmer.Store",

	// What a remaining test observes reachable behaviour through, or
	// compares it against.
	"rpc.NewClient":          "TestWireGoldenBytesLive, a fixed point, builds its client over a pipe through it",
	"rpc.Client.Catchup":     "test oracle: the typed sender of MsgCatchup for replay's hostile-snapshot tests and TestWritabilityContract (the Replicator writes the frame itself)",
	"rpc.Client.LeaseGrant":  "test oracle: the typed sender of MsgLeaseGrant for TestWritabilityContract and the lease wire tests (the Replicator writes the frame itself)",
	"rpc.AckWindow.Window":   "test oracle: the AIMD rule is only visible through the current window",
	"rpc.AckWindow.InFlight": "test oracle: the window bound is asserted through it",
	"rpc.AckWindow.Err":      "test oracle: the sticky first failure is asserted through it",
	"graph.Graph.Weight":     "test oracle: N_xy under core's refModel and the paper's LDA examples",
	"graph.Graph.Total":      "test oracle: N_x under core's refModel",
	"vsm.PathSimilarity":     "test oracle: the paper's Table 2 3/4 example and FuzzSimMatchesReference read the IPA path term alone through it",
	"cache.LRU.Len":          "test oracle: the capacity bound is only observable through the resident count",
	"hust.MDS.Cache":         "test oracle: what a prefetch installed is read from the server's cache",

	// Called by the errors package through interfaces it does not name.
	"rpc.refusal.Unwrap": "errors.Is and errors.As unwrap a refusal to its cause",
	"rpc.WireError.Is":   "errors.Is matches a decoded wire error against the sentinels through it",
}

// reachStdIfaces are the standard-library interfaces whose methods the
// library calls on our types; a method that satisfies one on a reachable
// type is reachable although no line of ours names it.
var reachStdIfaces = map[string]string{
	"error":                    "errors are printed and compared by callers",
	"fmt.Stringer":             "fmt calls String on any operand; which values reach a verb is not analysed",
	"container/heap.Interface": "heap.Push/Pop call back into sim's event heap",
	"encoding/json.Marshaler":  "/metrics.json marshals obs samples",
	"io.Closer":                "kvstore closes its log through the interface",
	"flag.Value":               "the flag package sets farmerd's repeatable -auth through it",
}

// reachDecl is one top-level declaration: its object, where it is
// written, and the objects its text names.
type reachDecl struct {
	obj      types.Object
	name     string // pkg.Name or pkg.Recv.Name, package path relative to the module
	internal bool
	pos, end token.Pos
	uses     []types.Object
}

type reachLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	pkgs map[string]*types.Package
	info *types.Info
	file map[string][]*ast.File
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	dir, ours := l.dirs[path]
	if !ours {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.file[path] = p, files
	return p, nil
}

func TestInternalReachable(t *testing.T) {
	build.Default.CgoEnabled = false // the source importer would shell out to cgo for net and os/user
	fset := token.NewFileSet()
	l := &reachLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		file: map[string][]*ast.File{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != "." && (n[0] == '.' || n == "testdata" || n == "out") {
			return filepath.SkipDir
		}
		if m, _ := filepath.Glob(filepath.Join(path, "*.go")); len(m) > 0 {
			l.dirs[filepath.ToSlash(filepath.Join("farmer", path))] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}

	// One node per top-level func, method, type and var of the module.
	var decls []*reachDecl
	byObj := map[types.Object]*reachDecl{}
	type ifaceAt struct {
		typ   *types.Interface
		owner *reachDecl // the declaration the interface type is written in
	}
	var ifaces []ifaceAt
	add := func(path string, id *ast.Ident, recv string, n ast.Node) *reachDecl {
		obj := l.info.Defs[id]
		d := &reachDecl{obj: obj, pos: n.Pos(), end: n.End(),
			name:     strings.TrimPrefix(strings.TrimPrefix(path, "farmer/"), "internal/") + "." + recv + id.Name,
			internal: strings.HasPrefix(path, "farmer/internal/")}
		decls, byObj[obj] = append(decls, d), d
		return d
	}
	for _, path := range paths {
		for _, f := range l.file[path] {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					recv := ""
					if decl.Recv != nil {
						recv = reachRecvName(decl.Recv.List[0].Type) + "."
					}
					add(path, decl.Name, recv, decl)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(path, spec.Name, "", spec)
						case *ast.ValueSpec:
							if decl.Tok == token.VAR {
								for _, id := range spec.Names {
									add(path, id, "", spec)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].pos < decls[j].pos })
	enclosing := func(p token.Pos) []*reachDecl { // several names of one var spec share its text
		i := sort.Search(len(decls), func(i int) bool { return decls[i].end > p })
		var out []*reachDecl
		for ; i < len(decls) && decls[i].pos <= p; i++ {
			out = append(out, decls[i])
		}
		return out
	}
	// namers[c] are the declarations whose text names the MsgType constant c.
	namers := map[*types.Const][]*reachDecl{}
	for id, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		case *types.Const:
			if o.Type().String() == "farmer/internal/rpc.MsgType" {
				namers[o] = append(namers[o], enclosing(id.Pos())...)
			}
		}
		if byObj[obj] == nil {
			continue
		}
		for _, d := range enclosing(id.Pos()) {
			d.uses = append(d.uses, obj)
		}
	}
	for expr, tv := range l.info.Types {
		if _, ok := expr.(*ast.InterfaceType); !ok {
			continue
		}
		it, _ := tv.Type.(*types.Interface)
		for _, d := range enclosing(expr.Pos()) {
			ifaces = append(ifaces, ifaceAt{it, d})
		}
	}
	var stdIfaces []*types.Interface
	for name, why := range reachStdIfaces {
		if why == "" {
			t.Errorf("reachStdIfaces[%q] states no reason", name)
		}
		var obj types.Object
		if dot := strings.LastIndex(name, "."); dot < 0 {
			obj = types.Universe.Lookup(name)
		} else if p, err := l.std.Import(name[:dot]); err == nil {
			obj = p.Scope().Lookup(name[dot+1:])
		}
		if obj == nil {
			t.Fatalf("reachStdIfaces: no interface %q", name)
		}
		stdIfaces = append(stdIfaces, obj.Type().Underlying().(*types.Interface))
	}

	// Roots: everything outside internal/ and what runs unasked (init); then
	// the var _ = assertions, which run nothing but are not dead; then the
	// allowlist.
	live := map[*reachDecl]bool{}
	var queue []*reachDecl
	mark := func(d *reachDecl) {
		if d != nil && !live[d] {
			live[d] = true
			queue = append(queue, d)
		}
	}
	allowed := map[string]*reachDecl{}
	var asserts []*reachDecl
	for _, d := range decls {
		if _, ok := reachAllow[d.name]; ok {
			allowed[d.name] = d
			continue
		}
		switch n := d.obj.Name(); {
		case n == "_":
			asserts = append(asserts, d)
		case !d.internal || n == "init":
			mark(d)
		}
	}
	drain := func() {
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			for _, o := range d.uses {
				mark(byObj[o])
			}
		}
	}
	// A method nobody names is live when its receiver is, and the receiver
	// satisfies a live interface that has it.
	satisfy := func() {
		for _, d := range decls {
			tn, ok := d.obj.(*types.TypeName)
			if !ok || !live[d] || tn.IsAlias() {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			try := func(it *types.Interface) {
				if it == nil || it.NumMethods() == 0 || !types.Implements(ptr, it) {
					return
				}
				for i := 0; i < it.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), it.Method(i).Name())
					if f, ok := m.(*types.Func); ok {
						mark(byObj[f.Origin()])
					}
				}
			}
			for _, it := range stdIfaces {
				try(it)
			}
			for _, it := range ifaces {
				if live[it.owner] {
					try(it.typ)
				}
			}
		}
	}
	reach := func() {
		for drain(); ; drain() {
			if satisfy(); len(queue) == 0 {
				return
			}
		}
	}
	reach()

	// Frames (PR 24): a request type the server has a row for is named by
	// something a program runs besides the table and MsgType.String — a
	// sender. A type kept alive by an interface assertion or as an
	// allowlisted test oracle is not one, so neither is live yet.
	for c, ds := range namers {
		row, sent := false, false
		for _, d := range ds {
			switch {
			case d.name == "rpc.msgRows":
				row = true
			case d.name != "rpc.MsgType.String" && live[d]:
				sent = true
			}
		}
		if row && !sent {
			t.Errorf("rpc.%s has a row in rpc/rows.go and no program names it: delete the frame, or give it a sender", c.Name())
		}
	}
	for _, d := range asserts {
		mark(d)
	}
	reach()

	for name, why := range reachAllow {
		d := allowed[name]
		switch {
		case why == "":
			t.Errorf("reachAllow[%q] states no reason", name)
		case d == nil:
			t.Errorf("reachAllow[%q] is stale: no such declaration", name)
		case live[d]:
			t.Errorf("reachAllow[%q] is stale: a program reaches it now", name)
		default:
			if _, ok := d.obj.(*types.Func); !ok {
				t.Errorf("reachAllow[%q] is a %T: only funcs and methods may be listed", name, d.obj)
			}
		}
	}
	for _, d := range allowed {
		mark(d)
	}
	reach()

	lines := 0
	for _, d := range decls {
		if d.internal && !live[d] {
			p := fset.Position(d.pos)
			n := fset.Position(d.end).Line - p.Line + 1
			lines += n
			t.Errorf("%s:%d: %s (%d lines) is reached by no program", p.Filename, p.Line, d.name, n)
		}
	}
	if lines > 0 {
		t.Errorf("%d lines of internal/ only their own tests can run: delete them, or list a func or method in reachAllow with its reason", lines)
	}
}

func reachRecvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return reachRecvName(e.X)
	case *ast.IndexExpr:
		return reachRecvName(e.X)
	case *ast.IndexListExpr:
		return reachRecvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
