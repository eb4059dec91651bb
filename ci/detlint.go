//go:build ignore

// detlint is the host-side determinism linter:
//
//	go run ./ci/detlint.go [-selftest] [pkgdir ...]
//
// The repo's contract is byte-identical output — tables, metrics,
// traces, goldens — for any parallelism, cache state or host. Two Go
// constructs quietly break that: iterating a map while emitting, and
// reading the wall clock on a deterministic path. A third makes a run
// depend on more than its spec: a mutable process-wide selection. detlint
// walks the deterministic host packages and the model packages (hostPkgs
// and modelPkgs) and reports:
//
//   - `for … range m` where m is syntactically map-typed (named map
//     types, map-typed struct fields, package vars, parameters, and
//     locals built with make/literals), unless the enclosing function
//     later calls sort.*/slices.Sort* (the collect-then-sort idiom) or
//     the range carries a `//detlint:sorted` directive explaining why
//     order cannot leak.
//   - any `time.Now` call not marked with a `//detlint:clock`
//     directive; the injectable-clock seam (obs.Tracer's default
//     clock) carries the directive.
//   - a package-level `var` of a sync/atomic type: state every run in
//     the process shares, so a result could depend on who ran before.
//     The engine, issue-policy and configuration defaults were three
//     such; a selection belongs on the job.Runner (Defaults) or in the
//     spec. No escape directive exists; add one when something needs it.
//   - in the model packages only: a `go` statement or a channel type. A
//     simulated cycle count must come from one host thread of control
//     (internal/perf runs its simulated threads as coroutines for that
//     reason); host concurrency belongs to the packages that run whole
//     simulations side by side. No escape directive either.
//
// Pure go/parser + go/ast, no type checker and no dependencies: the
// map-type inference is syntactic and may miss aliases through
// interfaces, but it cannot false-positive on a slice. Exits 1 on any
// finding. -selftest parses embedded fixtures and verifies the linter
// still catches each seeded violation (CI runs it before the real
// scan, so a silently broken linter fails loudly).
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var hostPkgs = []string{
	"internal/harness",
	"internal/obs",
	"internal/serve",
	"internal/prof",
	"internal/vet",
	"internal/job",
	"internal/resultcache",
	"internal/timing",
}

// modelPkgs is the model: every package a simulated cycle count flows
// through. These get the single-thread-of-control rule on top.
var modelPkgs = []string{
	"internal/arch",
	"internal/sim",
	"internal/perf",
	"internal/core",
	"internal/cache",
	"internal/mem",
	"internal/stream",
	"internal/splash",
	"internal/md",
	"internal/ray",
	"internal/kernel",
	"internal/barrier",
	"internal/link",
	"internal/isa",
	"internal/asm",
}

func main() {
	selftest := flag.Bool("selftest", false, "verify the linter catches its seeded fixtures, then exit")
	flag.Parse()
	if *selftest {
		runSelftest()
		return
	}
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = append(append([]string{}, hostPkgs...), modelPkgs...)
	}
	// One universe per directory: type and field names are package-scoped
	// (sim's `blocks` map must not make vet's `blocks` slice a finding).
	byDir := map[string][]string{}
	model := map[string]bool{} // directories under a model package
	for _, dir := range pkgs {
		isModel := false
		for _, m := range modelPkgs {
			isModel = isModel || filepath.Clean(dir) == filepath.FromSlash(m)
		}
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !info.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				byDir[filepath.Dir(path)] = append(byDir[filepath.Dir(path)], path)
				model[filepath.Dir(path)] = isModel
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			os.Exit(2)
		}
	}
	var findings []string
	for dir, files := range byDir {
		sort.Strings(files)
		findings = append(findings, lintFiles(files, model[dir])...)
	}
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// lintFiles parses one package's files and lints them with a shared
// map-type universe, so a named map type declared in one file is
// recognized when ranged over in another. model adds the model packages'
// rule.
func lintFiles(paths []string, model bool) []string {
	fset := token.NewFileSet()
	var parsed []*ast.File
	var names []string
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return []string{fmt.Sprintf("%v", err)}
		}
		parsed = append(parsed, f)
		names = append(names, p)
	}
	u := newUniverse(parsed)
	var findings []string
	for i, f := range parsed {
		findings = append(findings, lintFile(fset, f, names[i], u)...)
		if model {
			findings = append(findings, hostConcurrency(fset, f, names[i])...)
		}
	}
	sort.Strings(findings)
	return findings
}

// universe holds the cross-file syntactic type facts: names (of types,
// fields, and package vars) known to be maps.
type universe struct {
	mapTypes  map[string]bool // named types declared as map[...]...
	mapIdents map[string]bool // field and package-var names of map type
}

func newUniverse(files []*ast.File) *universe {
	u := &universe{mapTypes: map[string]bool{}, mapIdents: map[string]bool{}}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.TypeSpec:
				if u.isMapType(d.Type) {
					u.mapTypes[d.Name.Name] = true
				}
			case *ast.Field:
				if u.isMapType(d.Type) {
					for _, name := range d.Names {
						u.mapIdents[name.Name] = true
					}
				}
			case *ast.ValueSpec:
				if d.Type != nil && u.isMapType(d.Type) {
					for _, name := range d.Names {
						u.mapIdents[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return u
}

// isMapType reports whether a type expression is syntactically a map
// (directly, behind pointers/parens, or via a previously-seen named
// map type).
func (u *universe) isMapType(t ast.Expr) bool {
	switch tt := t.(type) {
	case *ast.MapType:
		return true
	case *ast.ParenExpr:
		return u.isMapType(tt.X)
	case *ast.StarExpr:
		return u.isMapType(tt.X)
	case *ast.Ident:
		return u.mapTypes[tt.Name]
	}
	return false
}

// lintFile walks one file's functions. Locals assigned from
// make(map...), map literals, or declared with map types are tracked
// per function body, shadowing the universe facts.
func lintFile(fset *token.FileSet, f *ast.File, path string, u *universe) []string {
	var findings []string

	// Directive lines: //detlint:sorted and //detlint:clock apply to
	// the line they sit on and the line below (comment-above style).
	sorted := map[int]bool{}
	clock := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			line := fset.Position(c.Pos()).Line
			if strings.Contains(c.Text, "detlint:sorted") {
				sorted[line], sorted[line+1] = true, true
			}
			if strings.Contains(c.Text, "detlint:clock") {
				clock[line], clock[line+1] = true, true
			}
		}
	}

	findings = append(findings, atomicGlobals(fset, f, path)...)

	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		// Two per-function fact sets: names proven map-typed, and
		// names proven NOT map-typed. The latter shadows the
		// cross-file field/var facts — a slice parameter named like a
		// map field elsewhere must not be flagged.
		locals := map[string]bool{}
		notMap := map[string]bool{}
		bind := func(name string, isMap bool) {
			if isMap {
				locals[name] = true
				delete(notMap, name)
			} else if !locals[name] {
				notMap[name] = true
			}
		}
		fields := []*ast.FieldList{fn.Recv, fn.Type.Params, fn.Type.Results}
		for _, fl := range fields {
			if fl == nil {
				continue
			}
			for _, fd := range fl.List {
				for _, name := range fd.Names {
					bind(name.Name, u.isMapType(fd.Type))
				}
			}
		}
		// Locals: make(map…), map literals, var decls. Not
		// flow-sensitive — a name that is ever map-typed in the body
		// stays map-typed (the conservative direction).
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if s.Tok != token.DEFINE && s.Tok != token.ASSIGN {
					return true
				}
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if len(s.Rhs) == len(s.Lhs) {
						bind(id.Name, isMapExpr(u, s.Rhs[i]))
					} else if s.Tok == token.DEFINE {
						bind(id.Name, false) // multi-value call: unknowable
					}
				}
			case *ast.DeclStmt:
				if gd, ok := s.Decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && vs.Type != nil {
							for _, name := range vs.Names {
								bind(name.Name, u.isMapType(vs.Type))
							}
						}
					}
				}
			}
			return true
		})

		// sortCalls: positions of sort.*/slices.Sort* calls in this
		// function, for the collect-then-sort exemption.
		var sortPos []token.Pos
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok {
					if pkg.Name == "sort" || (pkg.Name == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort")) {
						sortPos = append(sortPos, call.Pos())
					}
				}
			}
			return true
		})
		sortedAfter := func(p token.Pos) bool {
			for _, sp := range sortPos {
				if sp > p {
					return true
				}
			}
			return false
		}

		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.RangeStmt:
				if !rangeOverMap(u, locals, notMap, s.X) {
					return true
				}
				pos := fset.Position(s.Pos())
				if sorted[pos.Line] || sortedAfter(s.Pos()) {
					return true
				}
				findings = append(findings, fmt.Sprintf(
					"%s:%d: range over map %q without a later sort (add sort, or //detlint:sorted with a reason)",
					path, pos.Line, exprString(s.X)))
			case *ast.SelectorExpr:
				if id, ok := s.X.(*ast.Ident); ok && id.Name == "time" && s.Sel.Name == "Now" {
					pos := fset.Position(s.Pos())
					if !clock[pos.Line] {
						findings = append(findings, fmt.Sprintf(
							"%s:%d: time.Now on a deterministic path (inject a clock, or //detlint:clock with a reason)",
							path, pos.Line))
					}
				}
			}
			return true
		})
	}
	return findings
}

// atomicGlobals reports the file's package-level variables declared with
// a sync/atomic type (atomic.Uint32, atomic.Value, atomic.Pointer[T], …),
// under whatever name the file imports the package.
func atomicGlobals(fset *token.FileSet, f *ast.File, path string) []string {
	pkg := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"sync/atomic"` {
			pkg = "atomic"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return nil
	}
	var findings []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			t := vs.Type
			if ix, ok := t.(*ast.IndexExpr); ok { // atomic.Pointer[T]
				t = ix.X
			}
			sel, ok := t.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != pkg {
				continue
			}
			for _, name := range vs.Names {
				findings = append(findings, fmt.Sprintf(
					"%s:%d: package-level %s.%s %q is process-wide mutable state (carry the selection on the job.Runner or in the spec)",
					path, fset.Position(name.Pos()).Line, pkg, sel.Sel.Name, name.Name))
			}
		}
	}
	return findings
}

// hostConcurrency reports every `go` statement and channel type in a model
// package's file: declarations, fields, parameters and make(chan …) alike
// all contain an *ast.ChanType.
func hostConcurrency(fset *token.FileSet, f *ast.File, path string) []string {
	var findings []string
	ast.Inspect(f, func(n ast.Node) bool {
		what := ""
		switch n.(type) {
		case *ast.GoStmt:
			what = "go statement"
		case *ast.ChanType:
			what = "channel type"
		default:
			return true
		}
		findings = append(findings, fmt.Sprintf(
			"%s:%d: %s in a model package (simulated time advances on one host thread of control; see internal/perf for coroutines)",
			path, fset.Position(n.Pos()).Line, what))
		return true
	})
	return findings
}

// isMapExpr reports whether an expression syntactically produces a map:
// make(map…), a map composite literal, or a call to make with a named
// map type.
func isMapExpr(u *universe, e ast.Expr) bool {
	switch ee := e.(type) {
	case *ast.CallExpr:
		if id, ok := ee.Fun.(*ast.Ident); ok && id.Name == "make" && len(ee.Args) > 0 {
			return u.isMapType(ee.Args[0])
		}
	case *ast.CompositeLit:
		if ee.Type != nil {
			return u.isMapType(ee.Type)
		}
	case *ast.UnaryExpr:
		return isMapExpr(u, ee.X)
	}
	return false
}

// rangeOverMap decides whether the ranged expression is map-typed: a
// local/param known to be a map, a selector whose terminal field name
// is a known map field, or an inline map-building expression. A name
// this function binds to a non-map type is never flagged, whatever a
// same-named field elsewhere looks like.
func rangeOverMap(u *universe, locals, notMap map[string]bool, x ast.Expr) bool {
	switch xx := x.(type) {
	case *ast.Ident:
		if notMap[xx.Name] {
			return false
		}
		return locals[xx.Name] || u.mapIdents[xx.Name]
	case *ast.SelectorExpr:
		return u.mapIdents[xx.Sel.Name]
	case *ast.ParenExpr:
		return rangeOverMap(u, locals, notMap, xx.X)
	}
	return isMapExpr(u, x)
}

// exprString renders the ranged expression for the finding message.
func exprString(x ast.Expr) string {
	switch xx := x.(type) {
	case *ast.Ident:
		return xx.Name
	case *ast.SelectorExpr:
		return exprString(xx.X) + "." + xx.Sel.Name
	case *ast.ParenExpr:
		return exprString(xx.X)
	}
	return "?"
}

// ---- selftest ----------------------------------------------------------

// Each fixture seeds exactly one violation (or none); the selftest
// fails if the linter's verdict ever drifts.
type fixture struct {
	name string
	src  string
	want int // findings expected
}

var selftests = []fixture{
	{"range-map-local", `package p
func f() []string {
	m := map[string]int{}
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}`, 1},
	{"range-map-sorted-after", `package p
import "sort"
func f() []string {
	m := map[string]int{}
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}`, 0},
	{"range-map-directive", `package p
func f(m map[string]int) int {
	n := 0
	//detlint:sorted — order-free aggregation
	for _, v := range m {
		n += v
	}
	return n
}`, 0},
	{"range-map-param", `package p
import "fmt"
func f(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}`, 1},
	{"range-map-field", `package p
import "fmt"
type S struct{ hists map[string]int }
func (s *S) f() {
	for k := range s.hists {
		fmt.Println(k)
	}
}`, 1},
	{"range-slice-clean", `package p
import "fmt"
func f(xs []string) {
	for _, x := range xs {
		fmt.Println(x)
	}
}`, 0},
	{"time-now-bare", `package p
import "time"
func f() int64 { return time.Now().UnixNano() }`, 1},
	{"time-now-directive", `package p
import "time"
func f() int64 {
	return time.Now().UnixNano() //detlint:clock — seeding only
}`, 0},
	{"named-map-type", `package p
import "fmt"
type registry map[string]int
func f(r registry) {
	for k := range r {
		fmt.Println(k)
	}
}`, 1},
	// A slice parameter sharing its name with a map field elsewhere
	// must not be flagged: local bindings shadow cross-file facts.
	{"shadowed-name-clean", `package p
import "fmt"
type S struct{ counters map[string]int }
func f(counters []string) {
	for _, c := range counters {
		fmt.Println(c)
	}
}`, 0},
	{"atomic-global", `package p
import "sync/atomic"
var defaultEngine atomic.Uint32
func f() uint32 { return defaultEngine.Load() }`, 1},
	{"atomic-global-generic-renamed", `package p
import a "sync/atomic"
type cfg struct{}
var (
	override a.Pointer[cfg]
	plain    int
)`, 1},
	{"atomic-field-clean", `package p
import "sync/atomic"
type runner struct{ hits atomic.Uint64 }
func (r *runner) f() { var n atomic.Int32; n.Add(1); r.hits.Add(1) }`, 0},
	{"array-receiver-clean", `package p
type A [4]uint64
type B struct{ m map[string]int }
func (m *A) total() uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}`, 0},
	// The same constructs are the host packages' business.
	{"host-goroutine-clean", `package p
func run(done chan struct{}) { go func() { close(done) }() }`, 0},
}

// modelSelftests are linted as a model package's files.
var modelSelftests = []fixture{
	// The channel-engine shape internal/perf had: a channel field, a make,
	// a goroutine per simulated thread.
	{"model-goroutine-and-channels", `package p
type machine struct{ msgs chan int }
func run(n int) *machine {
	m := &machine{msgs: make(chan int)}
	for i := 0; i < n; i++ {
		go func() { m.msgs <- i }()
	}
	return m
}`, 3},
	{"model-coroutine-clean", `package p
import "iter"
func run(body iter.Seq[int]) int {
	next, stop := iter.Pull(body)
	defer stop()
	v, _ := next()
	return v
}`, 0},
}

func runSelftest() {
	failed := false
	check := func(tc fixture, model bool) {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, tc.name+".go", tc.src, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selftest %s: parse: %v\n", tc.name, err)
			failed = true
			return
		}
		u := newUniverse([]*ast.File{f})
		got := lintFile(fset, f, tc.name+".go", u)
		if model {
			got = append(got, hostConcurrency(fset, f, tc.name+".go")...)
		}
		if len(got) != tc.want {
			fmt.Fprintf(os.Stderr, "selftest %s: %d finding(s), want %d:\n", tc.name, len(got), tc.want)
			for _, g := range got {
				fmt.Fprintln(os.Stderr, "  ", g)
			}
			failed = true
		}
	}
	for _, tc := range selftests {
		check(tc, false)
	}
	for _, tc := range modelSelftests {
		check(tc, true)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("detlint selftest: ok")
}
