package compile_test

import (
	"testing"

	"pathprof/internal/planir"
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm/compile"
)

// stepCosts gives every charge RunOps can make its own decimal digit,
// so a wrong total names the charge that went wrong.
var stepCosts = compile.CostModel{
	RegOp:       1,
	CountArray:  10,
	CountConst:  100,
	CountHash:   1000,
	PoisonCheck: 10000,
	ColdBump:    100000,
}

func op(k planir.OpKind, v int64) planir.Op { return planir.Op{Kind: k, V: v} }

// TestRunOpsCharges pins the op-stream semantics against hand-computed
// results. The interpreter, the compiled generic lowering and the
// validator's reference all run RunOps, so their differential tests
// cannot catch a fault in it; this table can.
func TestRunOpsCharges(t *testing.T) {
	const size = 8
	cases := []struct {
		name        string
		hash, check bool
		r0          int64
		ops         []planir.Op
		wantR       int64
		wantCost    int64
		wantCounts  map[int64]int64 // table index -> count; others zero
		wantCold    int64
		wantDrops   int64
		wantIncs    int64 // TableIncs cell
		wantColdTel int64 // ColdBumps cell
	}{
		{name: "reg ops", r0: 5, ops: []planir.Op{op(planir.OpInc, 3), op(planir.OpSet, 7), op(planir.OpInc, 2)},
			wantR: 9, wantCost: 3},
		{name: "count r", r0: 4, ops: []planir.Op{op(planir.OpCountR, 0)},
			wantR: 4, wantCost: 10, wantCounts: map[int64]int64{4: 1}, wantIncs: 1},
		{name: "count r+v", r0: 2, ops: []planir.Op{op(planir.OpCountRV, 3)},
			wantR: 2, wantCost: 10, wantCounts: map[int64]int64{5: 1}, wantIncs: 1},
		{name: "count const", r0: 9, ops: []planir.Op{op(planir.OpCountC, 1)},
			wantR: 9, wantCost: 100, wantCounts: map[int64]int64{1: 1}, wantIncs: 1},
		{name: "hash count", hash: true, r0: 2, ops: []planir.Op{op(planir.OpCountRV, 40)},
			wantR: 2, wantCost: 1000, wantCounts: map[int64]int64{42: 1}, wantIncs: 1},
		{name: "hash count const", hash: true, r0: 2, ops: []planir.Op{op(planir.OpCountC, 40)},
			wantR: 2, wantCost: 1000, wantCounts: map[int64]int64{40: 1}, wantIncs: 1},
		{name: "several counts", r0: 0, ops: []planir.Op{
			op(planir.OpCountR, 0), op(planir.OpInc, 2), op(planir.OpCountRV, 1), op(planir.OpSet, 6), op(planir.OpCountC, 0)},
			wantR: 6, wantCost: 10 + 1 + 10 + 1 + 100, wantCounts: map[int64]int64{0: 2, 3: 1}, wantIncs: 3},
		{name: "checked live", check: true, r0: 3, ops: []planir.Op{op(planir.OpInc, 1), op(planir.OpCountR, 0)},
			wantR: 4, wantCost: 1 + 10000 + 10, wantCounts: map[int64]int64{4: 1}, wantIncs: 1},
		{name: "checked poisoned", check: true, r0: -1, ops: []planir.Op{op(planir.OpCountR, 0)},
			wantR: -1, wantCost: 10000 + 100000, wantCold: 1, wantColdTel: 1},
		// The check tests the register, not the counter index.
		{name: "checked poisoned r+v", check: true, r0: -1, ops: []planir.Op{op(planir.OpCountRV, 5)},
			wantR: -1, wantCost: 10000 + 100000, wantCold: 1, wantColdTel: 1},
		{name: "checked poisoned const", check: true, r0: -5, ops: []planir.Op{op(planir.OpCountC, 2)},
			wantR: -5, wantCost: 10000 + 100000, wantCold: 1, wantColdTel: 1},
		{name: "checked hash", check: true, hash: true, r0: 7, ops: []planir.Op{op(planir.OpCountR, 0)},
			wantR: 7, wantCost: 10000 + 1000, wantCounts: map[int64]int64{7: 1}, wantIncs: 1},
		{name: "checked mixed", check: true, r0: -1, ops: []planir.Op{
			op(planir.OpCountR, 0), op(planir.OpSet, 2), op(planir.OpCountC, 6)},
			wantR: 2, wantCost: 10000 + 100000 + 1 + 10000 + 100, wantCounts: map[int64]int64{6: 1}, wantCold: 1,
			wantIncs: 1, wantColdTel: 1},
		// Without the check a negative index is an out-of-range drop.
		{name: "unchecked negative", r0: -1, ops: []planir.Op{op(planir.OpCountR, 0)},
			wantR: -1, wantCost: 10, wantDrops: 1, wantIncs: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kind := profile.ArrayTable
			if tc.hash {
				kind = profile.HashTable
			}
			tab := profile.NewTable(kind, size, size)
			m := telemetry.NewVMMetrics(telemetry.NewRegistry(1))
			tel := m.Cells(0)
			spec := &compile.FuncSpec{Hash: tc.hash, PoisonCheck: tc.check}
			r, cost := compile.RunOps(tc.ops, tc.r0, spec, tab, &stepCosts, &tel)
			if r != tc.wantR || cost != tc.wantCost {
				t.Errorf("RunOps = (r %d, cost %d), want (r %d, cost %d)", r, cost, tc.wantR, tc.wantCost)
			}
			for idx := int64(-1); idx < 64; idx++ {
				if got := tab.Get(idx); got != tc.wantCounts[idx] {
					t.Errorf("count[%d] = %d, want %d", idx, got, tc.wantCounts[idx])
				}
			}
			if tab.Cold != tc.wantCold || tab.Drops != tc.wantDrops || tab.Lost != 0 {
				t.Errorf("cold %d drops %d lost %d, want %d, %d, 0", tab.Cold, tab.Drops, tab.Lost, tc.wantCold, tc.wantDrops)
			}
			if got := m.TableIncs.Value(); got != tc.wantIncs {
				t.Errorf("TableIncs cell %d, want %d", got, tc.wantIncs)
			}
			if got := m.ColdBumps.Value(); got != tc.wantColdTel {
				t.Errorf("ColdBumps cell %d, want %d", got, tc.wantColdTel)
			}
			if got := m.Transitions.Value() + m.Ops.Value() + m.Paths.Value(); got != 0 {
				t.Errorf("RunOps bumped the caller-owned cells (%d)", got)
			}
		})
	}
}

// TestStepCharges pins what Step adds around RunOps: the transition and
// op counters and the edge-instrumentation charge.
func TestStepCharges(t *testing.T) {
	tab := profile.NewTable(profile.ArrayTable, 4, 4)
	m := telemetry.NewVMMetrics(telemetry.NewRegistry(1))
	st := &compile.Stepper{
		Spec:  &compile.FuncSpec{},
		Run:   compile.FuncRun{Table: tab},
		Costs: &stepCosts,
		Tel:   m.Cells(0),
	}
	tr := compile.Track{R: 1}
	withOps := compile.SuccSpec{EdgeSlot: -1, InstrCost: 7, Ops: []planir.Op{op(planir.OpInc, 1), op(planir.OpCountR, 0)}}
	bare := compile.SuccSpec{EdgeSlot: -1, InstrCost: 5}
	if got := st.Step(&withOps, &tr); got != 7+1+10 || tr.R != 2 || tab.Get(2) != 1 {
		t.Errorf("Step(ops) = cost %d, r %d, count[2] %d; want 18, 2, 1", got, tr.R, tab.Get(2))
	}
	if got := st.Step(&bare, &tr); got != 5 || tr.R != 2 {
		t.Errorf("Step(bare) = cost %d, r %d; want 5, 2", got, tr.R)
	}
	if tn, on := m.Transitions.Value(), m.Ops.Value(); tn != 2 || on != 2 {
		t.Errorf("Transitions %d Ops %d, want 2 and 2", tn, on)
	}
}
