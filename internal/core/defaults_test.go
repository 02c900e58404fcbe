package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/ir"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

// TestDefaultBackendIsCompiled pins the one default: every way of
// naming no backend — zero-valued options, the empty backend name, a
// fresh pipeline, and the -backend flag of each CLI — builds a
// compiled, translation-validated engine. The dense interpreter is
// only ever reached by naming it.
func TestDefaultBackendIsCompiled(t *testing.T) {
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf missing")
	}
	pl := core.NewPipeline(w.Name, w.Source)
	staged, err := pl.Stage()
	if err != nil {
		t.Fatal(err)
	}
	requireCompiled := func(t *testing.T, prog *ir.Program, opts vm.Options) {
		t.Helper()
		e, err := vm.NewEngine(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if e.Backend() != vm.BackendCompiled || e.Compiled() == nil {
			t.Errorf("engine backend %v (compiled program present: %v), want compiled",
				e.Backend(), e.Compiled() != nil)
		}
	}
	parsed := func(t *testing.T, name string) vm.Options {
		t.Helper()
		be, err := vm.ParseBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		return vm.Options{Backend: be}
	}

	t.Run("vm.Options{}", func(t *testing.T) {
		requireCompiled(t, staged.Prog, vm.Options{})
	})
	t.Run(`ParseBackend("")`, func(t *testing.T) {
		requireCompiled(t, staged.Prog, parsed(t, ""))
	})
	t.Run("core.NewPipeline", func(t *testing.T) {
		requireCompiled(t, staged.Prog, vm.Options{Backend: pl.Backend})
		// Staging ran on the same engine kind: only a compiled build
		// records translation-validation timings.
		if staged.OriginalRun.ValidateUs == nil || staged.Base.ValidateUs == nil {
			t.Error("default pipeline staged on the dense interpreter")
		}
	})
	for _, cmd := range []string{"pppc", "pppbench"} {
		t.Run(cmd+" -backend", func(t *testing.T) {
			requireCompiled(t, staged.Prog, parsed(t, backendFlagDefault(t, "../../cmd/"+cmd+"/main.go")))
		})
	}
}

// backendFlagDefault returns the default value the CLI at path gives
// its -backend flag, read from the flag declaration
// (fs.String("backend", <default>, <usage>)).
func backendFlagDefault(t *testing.T, path string) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var def string
	found := 0
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "String" {
			return true
		}
		name, ok := call.Args[0].(*ast.BasicLit)
		if !ok || name.Value != `"backend"` {
			return true
		}
		lit, ok := call.Args[1].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Fatalf("%s: -backend default is not a string literal", path)
		}
		if def, err = strconv.Unquote(lit.Value); err != nil {
			t.Fatal(err)
		}
		found++
		return true
	})
	if found != 1 {
		t.Fatalf("%s: found %d -backend flag declarations, want 1", path, found)
	}
	return def
}
