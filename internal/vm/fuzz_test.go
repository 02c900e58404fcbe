package vm_test

import (
	"bytes"
	"errors"
	"testing"

	"pathprof/internal/instr"
	"pathprof/internal/ir"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm"
	vmcompile "pathprof/internal/vm/compile"
)

// The differential fuzzer: random structured (hence reducible) IR
// programs run on the compiled executor and the reference interpreter
// under fuzzed option mixes, and every observable — return value, step
// count, modeled costs, dynamic call count, profile fingerprint, printed
// output, budget-exhaustion behavior — must be bit-identical. This is the
// contract the compiled executor lives by; TestInterpAgreesOnWorkloads
// checks it on realistic programs, the fuzzer on adversarial ones.

const (
	fuzzRegs = 8 // r0-r4 scratch, r5 peephole constant, r6 cond/one, r7 loop counter
	konstReg = 5
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
	return g.thenJoin(f, cur)
}

// thenJoin ends cur in a branch on condReg around a then block and
// returns the join.
func (g *irGen) thenJoin(f *ir.Func, cur *ir.Block) *ir.Block {
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

// hotLoop appends a counted loop that runs past compile.TraceAt
// iterations (TraceAt to 3*TraceAt-1), so its body paths become
// traces mid-run: the body may branch once or twice, giving the trace
// side exits and side traces, and may call the leaf, which leaves its
// traces open before the call. Returns the exit block.
func (g *irGen) hotLoop(f *ir.Func, cur *ir.Block, callee int) *ir.Block {
	n := vmcompile.TraceAt + int(g.next())%(2*vmcompile.TraceAt)
	cur.Instrs = append(cur.Instrs, ir.Instr{Op: ir.Const, Dst: ctrReg, Imm: int64(n)})
	head := f.NewBlock("")
	body := f.NewBlock("")
	exit := f.NewBlock("")
	cur.Term = ir.Term{Kind: ir.Jump, To: head.Index}
	head.Term = ir.Term{Kind: ir.Branch, Cond: ctrReg, To: body.Index, Else: exit.Index}
	g.straight(body)
	tail := body
	switch shape := g.next(); {
	case shape%4 == 1:
		tail = g.ifThen(f, tail)
	case shape%4 == 2:
		tail = g.ifElse(f, g.ifThen(f, tail))
	case shape%4 == 3 && callee >= 0:
		x := int(g.next())
		tail.Instrs = append(tail.Instrs, ir.Instr{
			Op: ir.Call, Dst: x % 5, Sym: callee,
			Args: []int{(x / 5) % 5, (x / 25) % 5},
		})
		tail = g.ifThen(f, tail)
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

// peepholeOps are what instr never draws: the opcodes it leaves out and
// compares whose result is not a branch condition.
var peepholeOps = []ir.Opcode{
	ir.Print, ir.Div, ir.Neg, ir.Mov, ir.BAnd, ir.BOr, ir.Shr, ir.Not,
	ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge,
}

// peephole appends a run of the lowering's peephole shapes: 1-4
// instructions from peepholeOps, each on registers or with a Const
// feeding its last operand or all of them, then a Const feeding the
// compare a branch around a then block tests. Returns the join.
func (g *irGen) peephole(f *ir.Func, cur *ir.Block) *ir.Block {
	n := 1 + int(g.next()%4)
	for i := 0; i < n; i++ {
		op := peepholeOps[int(g.next())%len(peepholeOps)]
		x := int(g.next())
		d, a, b := x%5, (x/5)%5, (x/25)%5
		if x >= 125 {
			cur.Instrs = append(cur.Instrs, ir.Instr{Op: ir.Const, Dst: konstReg, Imm: int64(g.next()) - 128})
			a, b = konstReg, konstReg
			if x%2 == 0 {
				a = (x / 5) % 5
			}
		}
		switch op {
		case ir.Print:
			cur.Instrs = append(cur.Instrs, ir.Instr{Op: op, A: b})
		case ir.Neg, ir.Mov, ir.Not:
			cur.Instrs = append(cur.Instrs, ir.Instr{Op: op, Dst: d, A: b})
		default:
			cur.Instrs = append(cur.Instrs, ir.Instr{Op: op, Dst: d, A: a, B: b})
		}
	}
	ops := []ir.Opcode{ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.Eq, ir.Ne}
	x := int(g.next())
	cur.Instrs = append(cur.Instrs,
		ir.Instr{Op: ir.Const, Dst: konstReg, Imm: int64(g.next()%16) - 8},
		ir.Instr{Op: ops[x%len(ops)], Dst: condReg, A: (x / 6) % 5, B: konstReg})
	return g.thenJoin(f, cur)
}

// Region selector bytes in [hotLo, peepLo) pick a hot loop and those
// in [peepLo, peepHi) a peephole run; the others pick shapes 0-5 as
// they did before hot loops existed. No seed or corpus entry older than
// a range holds a byte in it, so each still generates the program it
// was added for. (254 and 255 are not free: the seed {255, 254, ...}
// wraps around and reads both as selectors.)
const hotLo, peepLo, peepHi = 240, 252, 254

// fn generates one routine as a linear chain of structured regions.
func (g *irGen) fn(name string, nparams, regions int, callee int) *ir.Func {
	f := &ir.Func{Name: name, NParams: nparams, NRegs: fuzzRegs}
	cur := f.NewBlock("entry")
	for r := nparams; r < 5; r++ {
		cur.Instrs = append(cur.Instrs, ir.Instr{Op: ir.Const, Dst: r, Imm: int64(g.next()) - 128})
	}
	for i := 0; i < regions; i++ {
		shape := g.next()
		switch {
		case peepLo <= shape && shape < peepHi:
			shape = 7
		case hotLo <= shape && shape < peepLo:
			shape = 6
		default:
			shape %= 6
		}
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
		case 6:
			cur = g.hotLoop(f, cur, callee)
		case 7:
			cur = g.peephole(f, cur)
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
// tel) and output buffer, and requires identical success or identical
// budget exhaustion, and after a success identical printed output and,
// when tel, identical VM counters. When tel, the compiled run must also
// have rejected no trace. Results are nil on error.
func runBoth(t *testing.T, prog *ir.Program, opts vm.Options, tel bool) (*vm.Result, *vm.Result) {
	t.Helper()
	var res [2]*vm.Result
	var errs [2]error
	var out [2]bytes.Buffer
	var regs [2]*telemetry.Registry
	var ms [2]*telemetry.VMMetrics
	for i, o := range []vm.Options{vm.Interp(opts), opts} {
		if tel {
			regs[i] = telemetry.NewRegistry(1)
			ms[i] = telemetry.NewVMMetrics(regs[i])
			o.Metrics = ms[i]
		}
		o.Output = &out[i]
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
	// A budget error stops the interpreter inside a segment the compiled
	// executor declines to enter, so output is compared on success only.
	if errs[0] == nil && !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("output divergence: dense %q, compiled %q\n%s", out[0].String(), out[1].String(), prog.Dump())
	}
	if tel && errs[0] == nil {
		if d, c := readVMCounters(regs[0], ms[0]), readVMCounters(regs[1], ms[1]); d != c {
			t.Fatalf("VM counter divergence:\ndense    %+v\ncompiled %+v\n%s", d, c, prog.Dump())
		}
	}
	// The trace former builds only sound traces, so a rejection is a
	// validator that refuses one.
	if tel {
		if n := ms[1].TracesRejected.Value(); n != 0 {
			t.Fatalf("compiled run rejected %d traces\n%s", n, prog.Dump())
		}
	}
	return res[0], res[1]
}

// vmCounters are the VM counters of a metered run that every executor
// must reproduce: they count what the program did, not how the
// executor ran it.
type vmCounters struct {
	Transitions, Ops, TableIncs, ColdBumps, Paths int64
	PathLenCount, PathLenSum                      int64
}

// readVMCounters folds m's counters, registered in reg, across cells.
func readVMCounters(reg *telemetry.Registry, m *telemetry.VMMetrics) vmCounters {
	c := vmCounters{
		Transitions: m.Transitions.Value(),
		Ops:         m.Ops.Value(),
		TableIncs:   m.TableIncs.Value(),
		ColdBumps:   m.ColdBumps.Value(),
		Paths:       m.Paths.Value(),
	}
	for _, h := range reg.HistStats() {
		if h.Name == "ppp_vm_path_len" {
			c.PathLenCount, c.PathLenSum = h.Count, h.Sum
		}
	}
	return c
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

// hotSeeds generate programs with hot loops (region shape 6) and
// calls, whose runs form three to six traces each
// (TestFuzzSeedsFormTraces keeps them forming traces).
var hotSeeds = [][]byte{
	{244, 242, 251, 5, 29, 242, 95, 246, 69, 251, 206, 119, 245, 242, 243, 244},
	{251, 213, 50, 237, 245, 45, 138, 250, 238, 51, 224, 83, 59},
	{138, 169, 249, 211, 237, 241, 18, 248, 3, 231, 63, 237, 89},
}

// peepholeSeeds generate programs with peephole runs (region shape 7);
// between them they hold every opcode (TestFuzzSeedsCoverOpcodes).
var peepholeSeeds = [][]byte{
	{137, 71, 36, 154, 253, 225, 88, 253, 207, 102, 43, 128, 140, 108},
	{253, 115, 125, 253, 159, 216, 253, 252, 252, 234, 253, 253},
}

// TestFuzzSeedsCoverOpcodes keeps the fuzzer's seeds reaching every
// opcode, so each lowering the compiled executor has meets the
// interpreter on the first fuzz run.
func TestFuzzSeedsCoverOpcodes(t *testing.T) {
	seen := map[ir.Opcode]bool{}
	for _, seed := range peepholeSeeds {
		for _, fn := range genProg(seed).Funcs {
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					seen[in.Op] = true
				}
			}
		}
	}
	for op := ir.Const; op <= ir.Print; op++ {
		if !seen[op] {
			t.Errorf("no peephole seed generates %v", op)
		}
	}
}

func FuzzCompiledVsInterp(f *testing.F) {
	f.Add([]byte{3})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{7, 200, 13, 13, 13, 90, 4, 61})
	f.Add([]byte{255, 254, 3, 3, 3, 3, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{17, 5, 5, 99, 42, 42, 42, 0, 0, 0, 201, 11})
	f.Add([]byte{9, 7, 7, 50, 31, 200, 4, 4, 90, 13, 66})
	f.Add([]byte{28, 141, 59, 26, 53, 58, 97, 93, 23, 84, 62, 64})
	for _, seed := range hotSeeds {
		f.Add(seed)
	}
	for _, seed := range peepholeSeeds {
		f.Add(seed)
	}
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

		// A budget anywhere in the run, hot loops' traced iterations
		// included: traces are entered only when their whole charge
		// fits, and must exhaust exactly where dispatch would.
		if len(data) > 1 {
			sat.MaxSteps = 1 + d.Steps*int64(data[len(data)-2])/256
			ds, cs = runBoth(t, prog, sat, false)
			requireIdentical(t, "saturated-late", ds, cs, prog)
		}
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
