package core_test

import (
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

// TestDefaultBackendIsCompiled pins the one executor: zero-valued
// options and a fresh pipeline both build compiled, translation-
// validated engines. The dense interpreter is a test oracle that only
// the vm package's own tests can reach.
func TestDefaultBackendIsCompiled(t *testing.T) {
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf missing")
	}
	staged, err := core.NewPipeline(w.Name, w.Source).Stage()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("vm.Options{}", func(t *testing.T) {
		e, err := vm.NewEngine(staged.Prog, vm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if e.Compiled() == nil {
			t.Error("zero options built no compiled program")
		}
	})
	t.Run("core.NewPipeline", func(t *testing.T) {
		// Only a validated compiled engine records per-routine
		// translation-validation timings.
		for _, f := range staged.Prog.Funcs {
			if _, ok := staged.Base.ValidateUs[f.Name]; !ok {
				t.Errorf("staging run carries no translation validation of %s", f.Name)
			}
		}
	})
}
