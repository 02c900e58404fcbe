package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapIter forbids ranging over maps in deterministic scope. Collect
// the keys with a helper (profile.sortedKeys and friends) and iterate
// the sorted slice instead.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "forbid map iteration in functions that feed deterministic output or fingerprints",
	Run:  runMapIter,
}

func runMapIter(p *Pass) {
	eachFunc(p.Files, func(f *ast.File, fd *ast.FuncDecl) {
		if !deterministicScope(fd) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true // no type info; stay silent rather than guess
			}
			if _, ok := t.Underlying().(*types.Map); ok {
				p.reportf("mapiter", "mapiter", rs.Pos(),
					"%s is deterministic scope: map iteration order is randomized; sort the keys first", fd.Name.Name)
			}
			return true
		})
	})
}

// HotPath forbids synchronization and allocation in //ppp:hotpath
// functions. These run once per profiled branch transition; the
// benchmark suite asserts zero allocs per operation, and this check
// keeps regressions from reaching the benchmarks at all.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid sync/atomic, locks, scheduling, and allocation in //ppp:hotpath functions",
	Run:  runHotPath,
}

func runHotPath(p *Pass) {
	eachFunc(p.Files, func(f *ast.File, fd *ast.FuncDecl) {
		imports := fileImports(f)
		if hotPathScope(fd) {
			p.inspectHot(imports, fd.Name.Name, fd.Body)
			return
		}
		// A compile-time code generator may build its hot code as
		// function literals inside cold builders. A //ppp:hotpath comment
		// on the literal — or the line above it, the conventional spot
		// before a return — puts the literal's body in hot-path scope
		// even though the enclosing builder is not.
		marks := hotMarkLines(p, f)
		if len(marks) == 0 {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			line := p.Fset.Position(lit.Pos()).Line
			if marks[line] || marks[line-1] {
				p.inspectHot(imports, fd.Name.Name+" closure", lit.Body)
				return false
			}
			return true
		})
	})
}

// hotMarkLines collects the lines of f bearing a //ppp:hotpath
// comment, the index inspectHot uses to follow the mark onto function
// literals.
func hotMarkLines(p *Pass, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text == "ppp:hotpath" || strings.HasPrefix(text, "ppp:hotpath ") {
				lines[p.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// inspectHot walks one hot-path body (a marked function's, or a marked
// function literal's) reporting synchronization and allocation.
func (p *Pass) inspectHot(imports map[string]string, name string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			p.reportf("hotpath", "goroutine", n.Pos(), "%s is a hot path: no goroutine launches", name)
		case *ast.DeferStmt:
			p.reportf("hotpath", "defer", n.Pos(), "%s is a hot path: defer has per-call scheduling cost", name)
		case *ast.FuncLit:
			p.reportf("hotpath", "alloc", n.Pos(), "%s is a hot path: function literal may allocate a closure", name)
			return false
		case *ast.CompositeLit:
			p.reportf("hotpath", "alloc", n.Pos(), "%s is a hot path: composite literal may allocate", name)
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				switch fun.Name {
				case "make", "new", "append":
					if isBuiltin(p, fun) {
						p.reportf("hotpath", "alloc", n.Pos(), "%s is a hot path: %s allocates", name, fun.Name)
					}
				}
			case *ast.SelectorExpr:
				switch p.selectorPkg(imports, fun) {
				case "sync":
					p.reportf("hotpath", "lock", n.Pos(), "%s is a hot path: sync.%s", name, fun.Sel.Name)
				case "sync/atomic":
					p.reportf("hotpath", "atomic", n.Pos(), "%s is a hot path: atomic.%s contends on shared cache lines (use a per-shard counter)", name, fun.Sel.Name)
				case "fmt":
					p.reportf("hotpath", "fmt", n.Pos(), "%s is a hot path: fmt.%s formats through reflection and allocates", name, fun.Sel.Name)
				default:
					switch fun.Sel.Name {
					case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
						p.reportf("hotpath", "lock", n.Pos(), "%s is a hot path: %s acquires a lock", name, fun.Sel.Name)
					}
				}
			}
			p.checkBoxing(n, name)
		}
		return true
	})
}

// checkBoxing flags hot-path calls that pass a concrete value where
// the callee takes an interface parameter: the implicit conversion
// boxes the value, which allocates when it escapes — the usual way a
// "zero-alloc" telemetry call quietly stops being one. Calls whose Fun
// has no resolved *types.Signature (unresolved imports, conversions)
// are skipped: vet supplies real type information, so the degraded
// mode only loses findings, never invents them.
func (p *Pass) checkBoxing(call *ast.CallExpr, fnName string) {
	sig, ok := p.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a slice passed whole does not box per argument
			}
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := p.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		p.reportf("hotpath", "box", arg.Pos(),
			"%s is a hot path: %s boxed into an interface parameter (allocates)", fnName, at)
	}
}

// isBuiltin reports whether id resolves to a builtin function (or did
// not resolve at all, in which case a bare make/new/append can only be
// the builtin unless shadowed — the typed path catches shadowing).
func isBuiltin(p *Pass, id *ast.Ident) bool {
	obj := p.TypesInfo.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// WallClock forbids wall-clock reads and global rand in deterministic
// scope: merge results and fingerprints must be replayable.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/Since/Until and math/rand in merge/fingerprint code",
	Run:  runWallClock,
}

func runWallClock(p *Pass) {
	eachFunc(p.Files, func(f *ast.File, fd *ast.FuncDecl) {
		if !deterministicScope(fd) {
			return
		}
		imports := fileImports(f)
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch p.selectorPkg(imports, sel) {
			case "time":
				switch sel.Sel.Name {
				case "Now", "Since", "Until":
					p.reportf("wallclock", "wallclock", sel.Pos(),
						"%s is deterministic scope: time.%s makes output depend on the wall clock", name, sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				p.reportf("wallclock", "rand", sel.Pos(),
					"%s is deterministic scope: math/rand draws from shared global state", name)
			}
			return true
		})
	})
}
