package compile

import (
	"errors"
	"fmt"
	"io"
	"math"

	"pathprof/internal/cfg"
	"pathprof/internal/profile"
	"pathprof/internal/telemetry"
)

// ErrMaxSteps is returned when the step budget is exhausted. The vm
// engine translates it to vm.ErrMaxSteps (compile cannot import vm).
var ErrMaxSteps = errors.New("compile: step budget exhausted")

// FuncRun binds one routine to its run containers, in function index
// order. The engine fills these from the run's profile sink (or fresh
// containers); which fields must be non-nil follows from the Options
// the Program was compiled with: Edges under CollectEdges, Paths under
// CollectPaths, Table for instrumented routines.
type FuncRun struct {
	Edges *profile.EdgeProfile
	Paths *profile.PathProfile
	Table *profile.Table
}

// Config is the per-worker run configuration: the worker's profile
// containers, telemetry cells, path hook, and step budget. One Exec
// per worker serves all of its replicas via Reset.
type Config struct {
	Fts      []FuncRun
	Out      io.Writer
	Tel      telemetry.VMCells
	PathHook func(fn string, p cfg.Path)
	MaxSteps int64 // <= 0 means unlimited
}

// Counters are the run's accounting totals, matching vm.Result's
// fields.
type Counters struct {
	Steps     int64
	BaseCost  int64
	InstrCost int64
	DynCalls  int64
}

// frame is one activation record. Register and path slices are pooled
// across calls and replicas; path holds the pending path's DAG edge
// IDs and trie is its incremental path-trie cursor into ft.Paths.
type frame struct {
	fc      *fnCode
	ft      *FuncRun
	regs    []int64
	r       int64 // path register
	path    []int32
	trie    int32
	bc      *blockCode
	seg     int32
	callDst int32
}

// Exec runs a compiled Program. The Program is immutable and shared;
// every piece of mutable run state lives here, so each worker owns an
// Exec and the closures race on nothing.
type Exec struct {
	p         *Program
	globals   []int64
	arrays    [][]int64
	fts       []FuncRun
	out       io.Writer
	tel       telemetry.VMCells
	pathHook  func(fn string, p cfg.Path)
	hookPath  cfg.Path // reused buffer a hooked path is resolved into
	maxSteps  int64
	bumpCalls bool

	steps    int64
	base     int64
	icost    int64
	dynCalls int64
	ret      int64

	stack []*frame
	pool  []*frame
	// rootMemo caches, per function and back edge, the trie node the
	// entry-dummy Step from the root resolves to, and the trace head
	// installed for that loop header. Trie nodes are only appended for
	// a binding's lifetime, so the memo never goes stale.
	rootMemo [][]memoEntry
	// The Exec's hot-path traces (trace.go): entryHead holds each
	// function's trace head for paths from the frame entry (nil when
	// the Exec forms no traces), tv validates each trace before it is
	// installed, and metered has trace exits and ends add their VM
	// counters.
	entryHead []*blockCode
	tv        *Validator
	metered   bool
	tcode     []micro // the trace former's scratch stream
}

// memoEntry is one back edge's restart memo: the trie node after the
// entry dummy (0 until first resolved) and the trace head for the
// header from that node (nil until a trace is installed).
type memoEntry struct {
	node int32
	head *blockCode
}

// NewExec binds a compiled program to one worker's containers.
func NewExec(p *Program, cfg Config) (*Exec, error) {
	if len(cfg.Fts) != len(p.fns) {
		return nil, fmt.Errorf("compile: %d run containers for %d functions", len(cfg.Fts), len(p.fns))
	}
	x := newExec(p, cfg)
	x.globals = append([]int64(nil), p.globalInit...)
	x.arrays = make([][]int64, len(p.arraySizes))
	for i, sz := range p.arraySizes {
		x.arrays[i] = make([]int64, sz)
	}
	if p.opts.CollectPaths {
		x.entryHead = make([]*blockCode, len(p.fns))
	}
	return x, nil
}

// newProbeExec returns the Exec translation validation takes arms and
// runs trace guards on: its containers and VM counter cells are the
// validator's twins, the containers swapped in per routine, and it has
// no globals or arrays (validation never runs block code) and forms no
// traces.
func newProbeExec(p *Program, hook func(string, cfg.Path), tel telemetry.VMCells) *Exec {
	return newExec(p, Config{Fts: make([]FuncRun, len(p.fns)), PathHook: hook, Tel: tel})
}

// newExec builds the state every Exec has.
func newExec(p *Program, cfg Config) *Exec {
	x := &Exec{
		p:         p,
		fts:       cfg.Fts,
		out:       cfg.Out,
		tel:       cfg.Tel,
		pathHook:  cfg.PathHook,
		maxSteps:  cfg.MaxSteps,
		bumpCalls: p.opts.CollectEdges,
		metered:   p.opts.Telemetry,
	}
	if x.maxSteps <= 0 {
		x.maxSteps = math.MaxInt64
	}
	x.rootMemo = make([][]memoEntry, len(p.fns))
	for i := range p.fns {
		if n := len(p.fns[i].memoTo); n > 0 {
			x.rootMemo[i] = make([]memoEntry, n)
		}
	}
	return x
}

// Reset restores program state (globals, arrays) and zeroes the run
// accounting, keeping pooled frames and profile containers: exactly
// what the next replica of a batched run needs.
func (x *Exec) Reset() {
	copy(x.globals, x.p.globalInit)
	for _, a := range x.arrays {
		for i := range a {
			a[i] = 0
		}
	}
	for _, fr := range x.stack {
		x.freeFrame(fr)
	}
	x.stack = x.stack[:0]
	x.steps, x.base, x.icost, x.dynCalls, x.ret = 0, 0, 0, 0, 0
}

// Counters returns the accounting of the last Run.
func (x *Exec) Counters() Counters {
	return Counters{Steps: x.steps, BaseCost: x.base, InstrCost: x.icost, DynCalls: x.dynCalls}
}

func (x *Exec) newFrame(fi, callDst int32) *frame {
	fc := &x.p.fns[fi]
	var fr *frame
	if n := len(x.pool); n > 0 {
		fr = x.pool[n-1]
		x.pool = x.pool[:n-1]
	} else {
		fr = &frame{}
	}
	fr.fc = fc
	fr.ft = &x.fts[fi]
	fr.bc = &fc.blocks[fc.entry]
	if x.entryHead != nil && x.entryHead[fi] != nil {
		fr.bc = x.entryHead[fi]
	}
	fr.seg = 0
	fr.r = 0
	fr.trie = 0
	fr.callDst = callDst
	if cap(fr.regs) < fc.nregs {
		fr.regs = make([]int64, fc.nregs)
	} else {
		fr.regs = fr.regs[:fc.nregs]
		for i := range fr.regs {
			fr.regs[i] = 0
		}
	}
	fr.path = fr.path[:0]
	if x.bumpCalls {
		fr.ft.Edges.BumpCalls()
	}
	return fr
}

// hook hands a completed path of edge IDs to the path hook, resolved
// through the routine's DAG edge table into the Exec's reused buffer.
func (x *Exec) hook(name string, edges []*cfg.DAGEdge, ids []int32) {
	x.hookPath = appendEdges(x.hookPath[:0], edges, ids)
	x.pathHook(name, x.hookPath)
}

// restart moves the trie cursor to the back-edge restart node, the
// Step from the trie root along entry dummy edID, memoized per
// (function, back edge): node 0 is the root itself, never a Step
// result, so it doubles as the empty sentinel. It returns the code to
// run next: the Exec's trace head for the header when a trace from
// that node is installed, the header's own code to otherwise.
func (x *Exec) restart(fr *frame, memoID int, edID int32, to *blockCode) *blockCode {
	m := &x.rootMemo[fr.fc.fi][memoID]
	if m.node == 0 {
		m.node = fr.ft.Paths.Step(0, edID)
	}
	fr.trie = m.node
	if m.head != nil {
		return m.head
	}
	return to
}

func (x *Exec) freeFrame(fr *frame) {
	fr.fc = nil
	fr.ft = nil
	fr.bc = nil
	x.pool = append(x.pool, fr)
}

// pushFrame activates a callee frame and applies the entry precharge:
// a solo entry block's step/cost charge lands here (transitions into
// solo blocks fold the same charge into terminator constants), so the
// main loop's solo path never touches the charge fields.
func (x *Exec) pushFrame(fi, callDst int32) *frame {
	fr := x.newFrame(fi, callDst)
	x.stack = append(x.stack, fr)
	x.steps += fr.fc.entrySteps
	x.base += fr.fc.entryCost
	return fr
}

// Run executes function entry (a program function index) to
// completion. The outer loop only walks segments and frames; all
// per-instruction work happens inside the compiled closures, and all
// per-transition work in take.
//
// The step budget is enforced per segment: the run errors at a segment
// boundary exactly when the interpreter would error inside it (the
// interpreter checks after each instruction's increment and a segment
// of n instructions always increments n times before its terminator,
// which never checks). On error the partial Result is discarded by the
// caller, so the skipped segment's register/global effects are
// unobservable; only Output prints from the doomed segment differ from
// the interpreter, which emits them before noticing the exhaustion.
func (x *Exec) Run(entry int, args []int64) (int64, error) {
	fc := &x.p.fns[entry]
	if len(args) != fc.nparams {
		return 0, fmt.Errorf("compile: %s expects %d args, got %d", fc.name, fc.nparams, len(args))
	}
	fr := x.pushFrame(int32(entry), -1)
	copy(fr.regs, args)

outer:
	for len(x.stack) > 0 {
		fr := x.stack[len(x.stack)-1]
		for {
			bc := fr.bc
			var nbc *blockCode
			var a *armConsts
			if bc.solo {
				// Call-free single-segment block, already charged by the
				// transition (or frame push) that entered it: compare the
				// budget and run the hoisted segment. The check is gated
				// off for instruction-free blocks — the interpreter only
				// checks after instruction increments, so terminator
				// charges alone never exhaust the budget.
				if x.steps > x.maxSteps && bc.check {
					return 0, ErrMaxSteps
				}
				// A trace head runs its trace when the whole trace's
				// charge fits the budget: then no block inside it could
				// have exhausted the budget either.
				if t := bc.trace; t != nil && t.budget <= x.maxSteps-x.steps {
					nbc = t.run(x, fr)
					goto next
				}
				if bc.code != nil {
					bc.code(x, fr)
				}
			} else {
				for int(fr.seg) < len(bc.segs) {
					seg := &bc.segs[fr.seg]
					if x.steps+seg.steps > x.maxSteps {
						return 0, ErrMaxSteps
					}
					x.steps += seg.steps
					x.base += seg.cost
					fr.seg++
					if seg.code != nil {
						seg.code(x, fr)
					}
					if cs := seg.call; cs != nil {
						x.dynCalls++
						nf := x.pushFrame(cs.fi, cs.dst)
						for i, a := range cs.args {
							nf.regs[i] = fr.regs[a]
						}
						continue outer
					}
				}
			}
			// The terminator takes its arm: a Branch's else arm when its
			// fused compare fails or its condition register is zero, else
			// arms[0].
			a = &bc.arms[0]
			if bc.cond != nil {
				if !bc.cond(x, fr) {
					a = &bc.arms[1]
				}
			} else if bc.creg >= 0 && fr.regs[bc.creg] == 0 {
				a = &bc.arms[1]
			}
			nbc = x.take(fr, a)
		next:
			if nbc != nil {
				fr.bc = nbc
				fr.seg = 0
				continue
			}
			// Return: pop, write the caller's destination register.
			x.stack = x.stack[:len(x.stack)-1]
			if n := len(x.stack); n > 0 {
				caller := x.stack[n-1]
				if fr.callDst >= 0 {
					caller.regs[fr.callDst] = x.ret
				}
			}
			x.freeFrame(fr)
			continue outer
		}
	}
	return x.ret, nil
}
