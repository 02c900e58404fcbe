package vm_test

import (
	"errors"
	"testing"

	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm"
)

// The differential fuzzer: random structured (hence reducible) IR
// programs run on the compiled executor and the reference interpreter
// under fuzzed option mixes, and every observable — return value, step
// count, modeled costs, dynamic call count, profile fingerprint,
// budget-exhaustion behavior — must be bit-identical. This is the
// contract the compiled executor lives by; TestInterpAgreesOnWorkloads
// checks it on realistic programs, the fuzzer on adversarial ones.

const (
	fuzzRegs = 8 // r0-r4 scratch, r5 unused, r6 cond/one, r7 loop counter
	condReg  = 6
	ctrReg   = 7
)

// irGen derives a deterministic program from fuzz bytes. Operand bytes
// wrap around the input; structural decisions (region counts, shapes)
// consume at most a bounded prefix, so every input terminates.
type irGen struct {
	data []byte
	pos  int
}

func (g *irGen) next() byte {
	if g.pos >= len(g.data) {
		g.pos = 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

// instr emits one random register/global/array instruction into b.
// Division and modulus are total in this IR (x/0 = x%0 = 0), so any
// operand mix is safe.
func (g *irGen) instr(b *ir.Block) {
	op := g.next()
	x := int(g.next())
	d, a, r2 := x%5, (x/5)%5, (x/25)%5
	var in ir.Instr
	switch op % 12 {
	case 0:
		in = ir.Instr{Op: ir.Const, Dst: d, Imm: int64(g.next()) - 100}
	case 1:
		in = ir.Instr{Op: ir.Add, Dst: d, A: a, B: r2}
	case 2:
		in = ir.Instr{Op: ir.Sub, Dst: d, A: a, B: r2}
	case 3:
		in = ir.Instr{Op: ir.Mul, Dst: d, A: a, B: r2}
	case 4:
		in = ir.Instr{Op: ir.Mod, Dst: d, A: a, B: r2}
	case 5:
		in = ir.Instr{Op: ir.BXor, Dst: d, A: a, B: r2}
	case 6:
		in = ir.Instr{Op: ir.Shl, Dst: d, A: a, B: r2}
	case 7:
		in = ir.Instr{Op: ir.LoadG, Dst: d, Sym: int(op) / 12 % 3}
	case 8:
		in = ir.Instr{Op: ir.StoreG, A: a, Sym: int(op) / 12 % 3}
	case 9:
		in = ir.Instr{Op: ir.LoadA, Dst: d, A: a, Sym: 0}
	case 10:
		in = ir.Instr{Op: ir.StoreA, A: a, B: r2, Sym: 0}
	case 11:
		in = ir.Instr{Op: ir.Not, Dst: d, A: a}
	}
	b.Instrs = append(b.Instrs, in)
}

func (g *irGen) straight(b *ir.Block) {
	n := 1 + int(g.next()%4)
	for i := 0; i < n; i++ {
		g.instr(b)
	}
}

// cmp emits a data-dependent comparison into condReg.
func (g *irGen) cmp(b *ir.Block) {
	ops := []ir.Opcode{ir.Lt, ir.Le, ir.Gt, ir.Eq, ir.Ne}
	x := int(g.next())
	b.Instrs = append(b.Instrs, ir.Instr{
		Op: ops[int(g.next())%len(ops)], Dst: condReg, A: x % 5, B: (x / 5) % 5,
	})
}

// ifThen appends cond/then/join blocks after cur and returns the join.
func (g *irGen) ifThen(f *ir.Func, cur *ir.Block) *ir.Block {
	g.cmp(cur)
	then := f.NewBlock("")
	join := f.NewBlock("")
	cur.Term = ir.Term{Kind: ir.Branch, Cond: condReg, To: then.Index, Else: join.Index}
	g.straight(then)
	then.Term = ir.Term{Kind: ir.Jump, To: join.Index}
	return join
}

// ifElse appends a full diamond and returns the join.
func (g *irGen) ifElse(f *ir.Func, cur *ir.Block) *ir.Block {
	g.cmp(cur)
	l := f.NewBlock("")
	r := f.NewBlock("")
	join := f.NewBlock("")
	cur.Term = ir.Term{Kind: ir.Branch, Cond: condReg, To: l.Index, Else: r.Index}
	g.straight(l)
	l.Term = ir.Term{Kind: ir.Jump, To: join.Index}
	g.straight(r)
	r.Term = ir.Term{Kind: ir.Jump, To: join.Index}
	return join
}

// whileLoop appends a counted while loop (1-5 iterations) whose body
// may itself branch, and returns the exit block. The counter register
// is dedicated, so termination is structural.
func (g *irGen) whileLoop(f *ir.Func, cur *ir.Block) *ir.Block {
	cur.Instrs = append(cur.Instrs, ir.Instr{Op: ir.Const, Dst: ctrReg, Imm: int64(g.next()%5) + 1})
	head := f.NewBlock("")
	body := f.NewBlock("")
	exit := f.NewBlock("")
	cur.Term = ir.Term{Kind: ir.Jump, To: head.Index}
	head.Term = ir.Term{Kind: ir.Branch, Cond: ctrReg, To: body.Index, Else: exit.Index}
	g.straight(body)
	tail := body
	if g.next()%2 == 0 {
		tail = g.ifThen(f, body)
	}
	tail.Instrs = append(tail.Instrs,
		ir.Instr{Op: ir.Const, Dst: condReg, Imm: 1},
		ir.Instr{Op: ir.Sub, Dst: ctrReg, A: ctrReg, B: condReg})
	tail.Term = ir.Term{Kind: ir.Jump, To: head.Index}
	return exit
}

// doWhile appends a bottom-tested loop whose back edge is a self edge,
// the degenerate loop shape the structured front end never produces.
func (g *irGen) doWhile(f *ir.Func, cur *ir.Block) *ir.Block {
	cur.Instrs = append(cur.Instrs, ir.Instr{Op: ir.Const, Dst: ctrReg, Imm: int64(g.next()%4) + 1})
	body := f.NewBlock("")
	exit := f.NewBlock("")
	cur.Term = ir.Term{Kind: ir.Jump, To: body.Index}
	g.straight(body)
	body.Instrs = append(body.Instrs,
		ir.Instr{Op: ir.Const, Dst: condReg, Imm: 1},
		ir.Instr{Op: ir.Sub, Dst: ctrReg, A: ctrReg, B: condReg})
	body.Term = ir.Term{Kind: ir.Branch, Cond: ctrReg, To: body.Index, Else: exit.Index}
	return exit
}

// fn generates one routine as a linear chain of structured regions.
func (g *irGen) fn(name string, nparams, regions int, callee int) *ir.Func {
	f := &ir.Func{Name: name, NParams: nparams, NRegs: fuzzRegs}
	cur := f.NewBlock("entry")
	for r := nparams; r < 5; r++ {
		cur.Instrs = append(cur.Instrs, ir.Instr{Op: ir.Const, Dst: r, Imm: int64(g.next()) - 128})
	}
	for i := 0; i < regions; i++ {
		shape := g.next() % 6
		if shape == 5 && callee < 0 {
			shape = 0
		}
		switch shape {
		case 0:
			g.straight(cur)
		case 1:
			cur = g.ifThen(f, cur)
		case 2:
			cur = g.ifElse(f, cur)
		case 3:
			cur = g.whileLoop(f, cur)
		case 4:
			cur = g.doWhile(f, cur)
		case 5:
			x := int(g.next())
			cur.Instrs = append(cur.Instrs, ir.Instr{
				Op: ir.Call, Dst: x % 5, Sym: callee,
				Args: []int{(x / 5) % 5, (x / 25) % 5},
			})
		}
	}
	cur.Term = ir.Term{Kind: ir.Ret, Ret: 0}
	f.Exit = cur.Index
	return f
}

// genProg builds a two-routine program (main plus a callable leaf)
// from fuzz bytes. Structured construction keeps every CFG reducible.
func genProg(data []byte) *ir.Program {
	g := &irGen{data: data}
	mainRegions := 2 + int(g.next()%5)
	leafRegions := 1 + int(g.next()%3)
	leaf := g.fn("leaf", 2, leafRegions, -1)
	main := g.fn("main", 0, mainRegions, 1)
	return &ir.Program{
		Funcs:       []*ir.Func{main, leaf},
		FuncIndex:   map[string]int{"main": 0, "leaf": 1},
		Globals:     []string{"g0", "g1", "g2"},
		GlobalInit:  []int64{1, -3, 7},
		GlobalIndex: map[string]int{"g0": 0, "g1": 1, "g2": 2},
		Arrays:      []ir.Array{{Name: "a0", Size: 16}},
		ArrayIndex:  map[string]int{"a0": 0},
	}
}

// runBoth executes prog under opts on the reference interpreter, then
// on the compiled executor, each with its own telemetry registry (when
// tel), and requires identical success or identical budget exhaustion;
// results are nil on error.
func runBoth(t *testing.T, prog *ir.Program, opts vm.Options, tel bool) (*vm.Result, *vm.Result) {
	t.Helper()
	var res [2]*vm.Result
	var errs [2]error
	for i, o := range []vm.Options{vm.Interp(opts), opts} {
		if tel {
			o.Metrics = telemetry.NewVMMetrics(telemetry.NewRegistry(1))
		}
		res[i], errs[i] = vm.Run(prog, o)
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, vm.ErrMaxSteps) {
			t.Fatalf("executor %d unexpected error: %v\n%s", i, err, prog.Dump())
		}
	}
	if (errs[0] == nil) != (errs[1] == nil) {
		t.Fatalf("budget divergence: dense err=%v, compiled err=%v\n%s", errs[0], errs[1], prog.Dump())
	}
	return res[0], res[1]
}

func requireIdentical(t *testing.T, label string, d, c *vm.Result, prog *ir.Program) {
	t.Helper()
	if d == nil || c == nil {
		return // identical budget exhaustion, nothing else to compare
	}
	switch {
	case d.Ret != c.Ret:
		t.Fatalf("%s: ret %d vs %d\n%s", label, d.Ret, c.Ret, prog.Dump())
	case d.Steps != c.Steps:
		t.Fatalf("%s: steps %d vs %d\n%s", label, d.Steps, c.Steps, prog.Dump())
	case d.BaseCost != c.BaseCost:
		t.Fatalf("%s: base cost %d vs %d\n%s", label, d.BaseCost, c.BaseCost, prog.Dump())
	case d.InstrCost != c.InstrCost:
		t.Fatalf("%s: instr cost %d vs %d\n%s", label, d.InstrCost, c.InstrCost, prog.Dump())
	case d.DynCalls != c.DynCalls:
		t.Fatalf("%s: dyn calls %d vs %d\n%s", label, d.DynCalls, c.DynCalls, prog.Dump())
	}
	if df, cf := d.Snapshot().Fingerprint(), c.Snapshot().Fingerprint(); df != cf {
		t.Fatalf("%s: fingerprint %#x vs %#x\n%s", label, df, cf, prog.Dump())
	}
}

// fuzzPlans builds per-routine instrumentation plans from a profiled
// run, mirroring the pipeline's profile-then-instrument stages.
// Routines the planner declines stay uninstrumented.
func fuzzPlans(t *testing.T, prog *ir.Program, profiled *vm.Result, tech instr.Techniques, pl instr.Placement) map[string]*instr.Plan {
	t.Helper()
	par := instr.DefaultParams()
	par.Placement = pl
	plans := map[string]*instr.Plan{}
	for _, f := range prog.Funcs {
		g, err := f.CFG()
		if err != nil {
			t.Fatalf("CFG %s: %v", f.Name, err)
		}
		profiled.Edges[f.Name].ApplyTo(g)
		p, err := instr.Build(g, tech, par, 0)
		if err != nil {
			continue
		}
		plans[f.Name] = p
	}
	return plans
}

func FuzzCompiledVsInterp(f *testing.F) {
	f.Add([]byte{3})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{7, 200, 13, 13, 13, 90, 4, 61})
	f.Add([]byte{255, 254, 3, 3, 3, 3, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{17, 5, 5, 99, 42, 42, 42, 0, 0, 0, 201, 11})
	f.Add([]byte{9, 7, 7, 50, 31, 200, 4, 4, 90, 13, 66})
	f.Add([]byte{28, 141, 59, 26, 53, 58, 97, 93, 23, 84, 62, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		prog := genProg(data)
		if err := prog.Validate(); err != nil {
			t.Fatalf("generator produced invalid program: %v\n%s", err, prog.Dump())
		}
		flags := data[0]

		// Exact profiling: edge + path collection, optionally with the
		// edge-instrument cost model and live telemetry cells.
		base := vm.Options{
			CollectEdges:   true,
			CollectPaths:   true,
			EdgeInstrument: flags&1 != 0,
		}
		d, c := runBoth(t, prog, base, flags&2 != 0)
		requireIdentical(t, "profiling", d, c, prog)
		if d == nil {
			return
		}

		// Instrumented rerun under a fuzzed technique; one flag bit flips
		// the edge-probe placement to min-cost cotree chords. PPP without
		// free poisoning puts an r<0 check on every count, the shape the
		// compiled executor runs through its generic op lowering.
		checked := func() instr.Techniques { t := instr.PPP(); t.FreePoison = false; return t }
		tech := []func() instr.Techniques{instr.PP, instr.TPP, instr.PPP, checked}[int(flags>>2)%4]()
		pl := instr.PlaceSpanning
		if flags&16 != 0 {
			pl = instr.PlaceMinCost
		}
		plans := fuzzPlans(t, prog, d, tech, pl)
		if len(plans) > 0 {
			iopts := vm.Options{Plans: plans, CollectPaths: true}
			di, ci := runBoth(t, prog, iopts, flags&2 != 0)
			requireIdentical(t, "instrumented", di, ci, prog)

			// Min-cost differential: sparse chord acquisition plus
			// Kirchhoff recovery must reproduce the fully instrumented
			// spanning run's profiles bit for bit, on both executors.
			if pl == instr.PlaceMinCost && di != nil {
				eopts := vm.Options{Plans: plans, CollectPaths: true, CollectEdges: true, EdgeInstrument: true}
				de, ce := runBoth(t, prog, eopts, false)
				requireIdentical(t, "mincost-instrumented", de, ce, prog)
				if de != nil {
					rec, err := vm.RecoverEdges(de.Snapshot(), plans)
					if err != nil {
						t.Fatalf("mincost recovery: %v\n%s", err, prog.Dump())
					}
					span := fuzzPlans(t, prog, d, tech, instr.PlaceSpanning)
					fopts := vm.Options{Plans: span, CollectPaths: true, CollectEdges: true, EdgeInstrument: true}
					df, _ := runBoth(t, prog, fopts, false)
					if df != nil && rec.Fingerprint() != df.Snapshot().Fingerprint() {
						t.Fatalf("recovered mincost snapshot %#x diverges from fully instrumented %#x\n%s",
							rec.Fingerprint(), df.Snapshot().Fingerprint(), prog.Dump())
					}
				}
			}
		}

		// Budget saturation: a small step budget must exhaust (or not)
		// identically, including exactly-at-the-boundary cases.
		sat := base
		sat.MaxSteps = 1 + int64(data[len(data)-1]%128)
		ds, cs := runBoth(t, prog, sat, false)
		requireIdentical(t, "saturated", ds, cs, prog)
	})
}

// TestCompiledReplicatedWorkers sweeps sharded replication across
// worker counts on generated programs: every (executor, workers) cell
// must merge to one fingerprint.
func TestCompiledReplicatedWorkers(t *testing.T) {
	seeds := [][]byte{
		{3, 141, 59, 26, 53, 58, 97, 93},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		{255, 17, 4, 4, 4, 80, 200, 33},
	}
	for si, data := range seeds {
		prog := genProg(data)
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d invalid: %v", si, err)
		}
		var want uint64
		haveWant := false
		for _, ex := range executors {
			opts := ex.on(vm.Options{CollectEdges: true, CollectPaths: true})
			for _, par := range []int{1, 2, 4, 8} {
				rr, err := vm.RunReplicated(prog, opts, 16, par)
				if err != nil {
					t.Fatalf("seed %d %s w=%d: %v", si, ex.name, par, err)
				}
				fp := rr.Merged.Fingerprint()
				if !haveWant {
					want, haveWant = fp, true
				} else if fp != want {
					t.Errorf("seed %d %s w=%d: fingerprint %#x, want %#x", si, ex.name, par, fp, want)
				}
			}
		}
	}
}
