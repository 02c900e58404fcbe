package compile

import (
	"fmt"
	"math/bits"

	"pathprof/internal/ir"
	"pathprof/internal/planir"
)

// This file is the compiler's one instruction lowering and its one
// micro-op loop. lowerMicros decodes a call-free run into micro-ops and
// makes every peephole decision there: a Const feeding the next
// instruction fuses into it, a global read-modify-write collapses into
// one in-place update, and a register store that nothing reads is
// dropped (per regReads). The executors are built from its output:
//
//   - a run of at least MicroMin micro-ops runs in microExec, ONE
//     closure around runMicros, the loop over a pre-decoded array: the
//     register slice is bounds-hoisted once per run, operands stream
//     from one contiguous array, and there is no call per instruction;
//   - a shorter run composes one closure per micro-op (microClosure)
//     through seqN: a handful of direct, predicted closure calls in
//     place of entering the loop;
//   - in a call-free block ending in a branch, a trailing compare into
//     the condition register leaves the run and becomes the branch's
//     condition (microCond), so the terminator dispatches on the
//     native bool; a compare whose register is read elsewhere stays in
//     the run, and the branch tests the register;
//   - a hot-path trace (trace.go) is one stream of the same micro-ops:
//     each block's run, its branch as an exit-if guard, and the
//     transition's edge bump, count and register fold, or RunOps
//     stream, all run by runMicros, which block runs and traces share.

// micro opcodes. mXxxK forms take the second operand from imm (the
// fused constant); mGXxxK/mGXxx mutate a global in place.
const (
	mConst uint8 = iota
	mMov
	mAdd
	mSub
	mMul
	mDiv
	mMod
	mNeg
	mNot
	mEq
	mNe
	mLt
	mLe
	mGt
	mGe
	mBAnd
	mBOr
	mBXor
	mShl
	mShr
	mAddK
	mSubK
	mMulK
	mEqK
	mNeK
	mLtK
	mLeK
	mGtK
	mGeK
	mBAndK
	mBOrK
	mBXorK
	mShlK
	mShrK
	mLoadG
	mStoreG
	mLoadA
	mStoreA
	mStoreAK
	mGAddK
	mGSubK
	mGMulK
	mGBAndK
	mGBOrK
	mGBXorK
	mGAdd
	mGSub
	mGMul
	mGSetK
	mDivK
	mModK
	mDivP2 // a divisor k = 2^n: b = n, imm = k-1
	mModP2 // a divisor k = 2^n: imm = k-1
	mPrint

	// Trace-only micro-ops. An exit-if guard leaves the stream at step d
	// when its condition holds: r[a] op r[b], r[a] op imm (the K forms,
	// both in the compares' order, on which exitIf relies), r[a] == 0
	// (mXZ) or r[a] != 0 (mXNZ).
	mXEq
	mXNe
	mXLt
	mXLe
	mXGt
	mXGe
	mXEqK
	mXNeK
	mXLtK
	mXLeK
	mXGtK
	mXGeK
	mXZ
	mXNZ
	// A transition's effects: bump edge slot b, count index
	// (r & m) + imm in the array (mCount) or hash (mCountH) table, apply
	// the register fold r = (r & m) + imm, or run the trace's RunOps
	// stream ops[b].
	mBump
	mCount
	mCountH
	mFold
	mOps
)

// MicroMin is the run length, in micro-ops after fusion, at which
// microExec takes over from chained closures.
const MicroMin = 4

type micro struct {
	op  uint8
	d   int32
	a   int32
	b   int32 // register, array/global symbol, or shift count
	imm int64
	m   uint64 // mDivK, mModK: recip(imm); mCount, mCountH, mFold: the mask
}

// microExec wraps a decoded run in the executing closure.
func microExec(ms []micro) instrFn {
	return func(x *Exec, fr *frame) { runMicros(x, fr, ms, nil) }
}

// runMicros is the micro-op loop: it runs ms on fr, with ops a trace's
// RunOps streams, and returns the step named by the first guard that
// exits, or -1 once the whole stream has run. A block's run has no
// guards.
//
//ppp:hotpath
func runMicros(x *Exec, fr *frame, ms []micro, ops [][]planir.Op) int32 {
	r := fr.regs
	g := x.globals
	for i := range ms {
		m := &ms[i]
		switch m.op {
		case mConst:
			r[m.d] = m.imm
		case mMov:
			r[m.d] = r[m.a]
		case mAdd:
			r[m.d] = r[m.a] + r[m.b]
		case mSub:
			r[m.d] = r[m.a] - r[m.b]
		case mMul:
			r[m.d] = r[m.a] * r[m.b]
		case mDiv:
			r[m.d] = safeDiv(r[m.a], r[m.b])
		case mMod:
			r[m.d] = safeMod(r[m.a], r[m.b])
		case mNeg:
			r[m.d] = -r[m.a]
		case mNot:
			r[m.d] = b2i(r[m.a] == 0)
		case mEq:
			r[m.d] = b2i(r[m.a] == r[m.b])
		case mNe:
			r[m.d] = b2i(r[m.a] != r[m.b])
		case mLt:
			r[m.d] = b2i(r[m.a] < r[m.b])
		case mLe:
			r[m.d] = b2i(r[m.a] <= r[m.b])
		case mGt:
			r[m.d] = b2i(r[m.a] > r[m.b])
		case mGe:
			r[m.d] = b2i(r[m.a] >= r[m.b])
		case mBAnd:
			r[m.d] = r[m.a] & r[m.b]
		case mBOr:
			r[m.d] = r[m.a] | r[m.b]
		case mBXor:
			r[m.d] = r[m.a] ^ r[m.b]
		case mShl:
			r[m.d] = r[m.a] << uint(r[m.b]&63)
		case mShr:
			r[m.d] = r[m.a] >> uint(r[m.b]&63)
		case mAddK:
			r[m.d] = r[m.a] + m.imm
		case mSubK:
			r[m.d] = r[m.a] - m.imm
		case mMulK:
			r[m.d] = r[m.a] * m.imm
		case mEqK:
			r[m.d] = b2i(r[m.a] == m.imm)
		case mNeK:
			r[m.d] = b2i(r[m.a] != m.imm)
		case mLtK:
			r[m.d] = b2i(r[m.a] < m.imm)
		case mLeK:
			r[m.d] = b2i(r[m.a] <= m.imm)
		case mGtK:
			r[m.d] = b2i(r[m.a] > m.imm)
		case mGeK:
			r[m.d] = b2i(r[m.a] >= m.imm)
		case mBAndK:
			r[m.d] = r[m.a] & m.imm
		case mBOrK:
			r[m.d] = r[m.a] | m.imm
		case mBXorK:
			r[m.d] = r[m.a] ^ m.imm
		case mShlK:
			r[m.d] = r[m.a] << uint(m.imm&63)
		case mShrK:
			r[m.d] = r[m.a] >> uint(m.imm&63)
		case mLoadG:
			r[m.d] = g[m.b]
		case mStoreG:
			g[m.b] = r[m.a]
		case mLoadA:
			arr := x.arrays[m.b]
			if len(arr) == 0 {
				r[m.d] = 0
			} else {
				r[m.d] = arr[wrap(r[m.a], int64(len(arr)))]
			}
		case mStoreA:
			arr := x.arrays[m.b]
			if len(arr) > 0 {
				arr[wrap(r[m.a], int64(len(arr)))] = r[m.d]
			}
		case mStoreAK:
			arr := x.arrays[m.b]
			if len(arr) > 0 {
				arr[wrap(r[m.a], int64(len(arr)))] = m.imm
			}
		case mGAddK:
			g[m.b] += m.imm
		case mGSubK:
			g[m.b] -= m.imm
		case mGMulK:
			g[m.b] *= m.imm
		case mGBAndK:
			g[m.b] &= m.imm
		case mGBOrK:
			g[m.b] |= m.imm
		case mGBXorK:
			g[m.b] ^= m.imm
		case mGAdd:
			g[m.b] += r[m.a]
		case mGSub:
			g[m.b] -= r[m.a]
		case mGMul:
			g[m.b] *= r[m.a]
		case mGSetK:
			g[m.b] = m.imm
		case mDivK:
			r[m.d] = divK(r[m.a], m.imm, m.m)
		case mModK:
			r[m.d] = modK(r[m.a], m.imm, m.m)
		case mDivP2:
			r[m.d] = divP2(r[m.a], m.b, m.imm)
		case mModP2:
			r[m.d] = modP2(r[m.a], m.imm)
		case mPrint:
			x.print(r[m.a])
		case mXEq:
			if r[m.a] == r[m.b] {
				return m.d
			}
		case mXNe:
			if r[m.a] != r[m.b] {
				return m.d
			}
		case mXLt:
			if r[m.a] < r[m.b] {
				return m.d
			}
		case mXLe:
			if r[m.a] <= r[m.b] {
				return m.d
			}
		case mXGt:
			if r[m.a] > r[m.b] {
				return m.d
			}
		case mXGe:
			if r[m.a] >= r[m.b] {
				return m.d
			}
		case mXEqK:
			if r[m.a] == m.imm {
				return m.d
			}
		case mXNeK:
			if r[m.a] != m.imm {
				return m.d
			}
		case mXLtK:
			if r[m.a] < m.imm {
				return m.d
			}
		case mXLeK:
			if r[m.a] <= m.imm {
				return m.d
			}
		case mXGtK:
			if r[m.a] > m.imm {
				return m.d
			}
		case mXGeK:
			if r[m.a] >= m.imm {
				return m.d
			}
		case mXZ:
			if r[m.a] == 0 {
				return m.d
			}
		case mXNZ:
			if r[m.a] != 0 {
				return m.d
			}
		case mBump:
			fr.ft.Edges.BumpSlot(int(m.b))
		case mCount:
			fr.ft.Table.IncArray((fr.r & int64(m.m)) + m.imm)
		case mCountH:
			fr.ft.Table.Inc((fr.r & int64(m.m)) + m.imm)
		case mFold:
			fr.r = (fr.r & int64(m.m)) + m.imm
		case mOps:
			x.runOps(fr, ops[m.b])
		}
	}
	return -1
}

// exitIf maps a compare micro-op, or mNot, to the exit-if guard that
// leaves the stream when the compare holds; ok is false for any other
// micro-op.
func exitIf(m micro) (micro, bool) {
	x := micro{a: m.a, b: m.b, imm: m.imm}
	switch m.op {
	case mEq, mNe, mLt, mLe, mGt, mGe:
		x.op = mXEq + (m.op - mEq)
	case mEqK, mNeK, mLtK, mLeK, mGtK, mGeK:
		x.op = mXEqK + (m.op - mEqK)
	case mNot:
		x.op, x.b = mXZ, 0
	default:
		return micro{}, false
	}
	return x, true
}

// negExit is the exit-if opcode that exits exactly when op does not.
var negExit = [...]uint8{
	mXEq - mXEq: mXNe, mXNe - mXEq: mXEq,
	mXLt - mXEq: mXGe, mXLe - mXEq: mXGt, mXGt - mXEq: mXLe, mXGe - mXEq: mXLt,
	mXEqK - mXEq: mXNeK, mXNeK - mXEq: mXEqK,
	mXLtK - mXEq: mXGeK, mXLeK - mXEq: mXGtK, mXGtK - mXEq: mXLeK, mXGeK - mXEq: mXLtK,
	mXZ - mXEq: mXNZ, mXNZ - mXEq: mXZ,
}

// guardAt returns the guard of step i on a branch whose condition is
// test (the exit-if that exits when the branch is taken): it exits when
// the branch leaves the trace's direction want.
func guardAt(test micro, want bool, i int) micro {
	if want {
		test.op = negExit[test.op-mXEq]
	}
	test.d = int32(i)
	return test
}

// isExitIf reports whether op is an exit-if guard.
func isExitIf(op uint8) bool { return op >= mXEq && op <= mXNZ }

// exitNames names the exit-if opcodes, indexed from mXEq.
var exitNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge", "eqk", "nek", "ltk", "lek", "gtk", "gek", "z", "nz"}

// print writes one print() value to the run's output, if any.
func (x *Exec) print(v int64) {
	if x.out != nil {
		fmt.Fprintf(x.out, "%d\n", v)
	}
}

// microClosure is one micro-op as a closure capturing only the
// operands it needs; all run state comes in through x and fr.
func microClosure(m micro) instrFn {
	d, a, b, k := m.d, m.a, m.b, m.imm
	switch m.op {
	case mConst:
		return func(x *Exec, fr *frame) { fr.regs[d] = k }
	case mMov:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] }
	case mAdd:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] + r[b] }
	case mSub:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] - r[b] }
	case mMul:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] * r[b] }
	case mDiv:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = safeDiv(r[a], r[b]) }
	case mMod:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = safeMod(r[a], r[b]) }
	case mNeg:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = -r[a] }
	case mNot:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] == 0) }
	case mEq:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] == r[b]) }
	case mNe:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] != r[b]) }
	case mLt:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] < r[b]) }
	case mLe:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] <= r[b]) }
	case mGt:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] > r[b]) }
	case mGe:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] >= r[b]) }
	case mBAnd:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] & r[b] }
	case mBOr:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] | r[b] }
	case mBXor:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] ^ r[b] }
	case mShl:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] << uint(r[b]&63) }
	case mShr:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] >> uint(r[b]&63) }
	case mAddK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] + k }
	case mSubK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] - k }
	case mMulK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] * k }
	case mEqK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] == k) }
	case mNeK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] != k) }
	case mLtK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] < k) }
	case mLeK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] <= k) }
	case mGtK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] > k) }
	case mGeK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = b2i(r[a] >= k) }
	case mBAndK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] & k }
	case mBOrK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] | k }
	case mBXorK:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] ^ k }
	case mShlK:
		sh := uint(k & 63)
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] << sh }
	case mShrK:
		sh := uint(k & 63)
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = r[a] >> sh }
	case mLoadG:
		return func(x *Exec, fr *frame) { fr.regs[d] = x.globals[b] }
	case mStoreG:
		return func(x *Exec, fr *frame) { x.globals[b] = fr.regs[a] }
	case mLoadA:
		return func(x *Exec, fr *frame) {
			arr := x.arrays[b]
			if len(arr) == 0 {
				fr.regs[d] = 0
				return
			}
			fr.regs[d] = arr[wrap(fr.regs[a], int64(len(arr)))]
		}
	case mStoreA:
		return func(x *Exec, fr *frame) {
			if arr := x.arrays[b]; len(arr) > 0 {
				arr[wrap(fr.regs[a], int64(len(arr)))] = fr.regs[d]
			}
		}
	case mStoreAK:
		return func(x *Exec, fr *frame) {
			if arr := x.arrays[b]; len(arr) > 0 {
				arr[wrap(fr.regs[a], int64(len(arr)))] = k
			}
		}
	case mGAddK:
		return func(x *Exec, fr *frame) { x.globals[b] += k }
	case mGSubK:
		return func(x *Exec, fr *frame) { x.globals[b] -= k }
	case mGMulK:
		return func(x *Exec, fr *frame) { x.globals[b] *= k }
	case mGBAndK:
		return func(x *Exec, fr *frame) { x.globals[b] &= k }
	case mGBOrK:
		return func(x *Exec, fr *frame) { x.globals[b] |= k }
	case mGBXorK:
		return func(x *Exec, fr *frame) { x.globals[b] ^= k }
	case mGAdd:
		return func(x *Exec, fr *frame) { x.globals[b] += fr.regs[a] }
	case mGSub:
		return func(x *Exec, fr *frame) { x.globals[b] -= fr.regs[a] }
	case mGMul:
		return func(x *Exec, fr *frame) { x.globals[b] *= fr.regs[a] }
	case mGSetK:
		return func(x *Exec, fr *frame) { x.globals[b] = k }
	case mDivK:
		mk := m.m
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = divK(r[a], k, mk) }
	case mModK:
		mk := m.m
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = modK(r[a], k, mk) }
	case mDivP2:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = divP2(r[a], b, k) }
	case mModP2:
		return func(x *Exec, fr *frame) { r := fr.regs; r[d] = modP2(r[a], k) }
	case mPrint:
		return func(x *Exec, fr *frame) { x.print(fr.regs[a]) }
	}
	panic(fmt.Sprintf("compile: micro-op %d has no closure", m.op))
}

// microCond lowers a compare micro-op that writes a branch's condition
// register, read by nothing but the branch, into the branch's condFn
// and the exit-if guard that exits when the branch is taken, and
// reports false for any other micro-op, which stays in the run.
func (c *comp) microCond(m micro) (condFn, micro, bool) {
	test, ok := exitIf(m)
	if !ok || c.reads[m.d] > 1 {
		return nil, micro{}, false
	}
	a, b, k := m.a, m.b, m.imm
	var f condFn
	switch m.op {
	case mNot:
		f = func(x *Exec, fr *frame) bool { return fr.regs[a] == 0 }
	case mEq:
		f = func(x *Exec, fr *frame) bool { r := fr.regs; return r[a] == r[b] }
	case mNe:
		f = func(x *Exec, fr *frame) bool { r := fr.regs; return r[a] != r[b] }
	case mLt:
		f = func(x *Exec, fr *frame) bool { r := fr.regs; return r[a] < r[b] }
	case mLe:
		f = func(x *Exec, fr *frame) bool { r := fr.regs; return r[a] <= r[b] }
	case mGt:
		f = func(x *Exec, fr *frame) bool { r := fr.regs; return r[a] > r[b] }
	case mGe:
		f = func(x *Exec, fr *frame) bool { r := fr.regs; return r[a] >= r[b] }
	case mEqK:
		f = func(x *Exec, fr *frame) bool { return fr.regs[a] == k }
	case mNeK:
		f = func(x *Exec, fr *frame) bool { return fr.regs[a] != k }
	case mLtK:
		f = func(x *Exec, fr *frame) bool { return fr.regs[a] < k }
	case mLeK:
		f = func(x *Exec, fr *frame) bool { return fr.regs[a] <= k }
	case mGtK:
		f = func(x *Exec, fr *frame) bool { return fr.regs[a] > k }
	case mGeK:
		f = func(x *Exec, fr *frame) bool { return fr.regs[a] >= k }
	}
	return f, test, true
}

// binMicro maps a plain binary/unary opcode to its micro form.
func binMicro(op ir.Opcode) (uint8, bool) {
	switch op {
	case ir.Mov:
		return mMov, true
	case ir.Add:
		return mAdd, true
	case ir.Sub:
		return mSub, true
	case ir.Mul:
		return mMul, true
	case ir.Div:
		return mDiv, true
	case ir.Mod:
		return mMod, true
	case ir.Neg:
		return mNeg, true
	case ir.Not:
		return mNot, true
	case ir.Eq:
		return mEq, true
	case ir.Ne:
		return mNe, true
	case ir.Lt:
		return mLt, true
	case ir.Le:
		return mLe, true
	case ir.Gt:
		return mGt, true
	case ir.Ge:
		return mGe, true
	case ir.BAnd:
		return mBAnd, true
	case ir.BOr:
		return mBOr, true
	case ir.BXor:
		return mBXor, true
	case ir.Shl:
		return mShl, true
	case ir.Shr:
		return mShr, true
	}
	return 0, false
}

// constMicro maps a binary opcode to its fused-constant micro form
// (the constant on the B side).
func constMicro(op ir.Opcode) (uint8, bool) {
	switch op {
	case ir.Add:
		return mAddK, true
	case ir.Sub:
		return mSubK, true
	case ir.Mul:
		return mMulK, true
	case ir.Eq:
		return mEqK, true
	case ir.Ne:
		return mNeK, true
	case ir.Lt:
		return mLtK, true
	case ir.Le:
		return mLeK, true
	case ir.Gt:
		return mGtK, true
	case ir.Ge:
		return mGeK, true
	case ir.BAnd:
		return mBAndK, true
	case ir.BOr:
		return mBOrK, true
	case ir.BXor:
		return mBXorK, true
	case ir.Shl:
		return mShlK, true
	case ir.Shr:
		return mShrK, true
	}
	return 0, false
}

// globalRMWMicro maps a binary opcode to the in-place global update
// micro, constant form and register form.
func globalRMWMicro(op ir.Opcode, konst bool) (uint8, bool) {
	if konst {
		switch op {
		case ir.Add:
			return mGAddK, true
		case ir.Sub:
			return mGSubK, true
		case ir.Mul:
			return mGMulK, true
		case ir.BAnd:
			return mGBAndK, true
		case ir.BOr:
			return mGBOrK, true
		case ir.BXor:
			return mGBXorK, true
		}
		return 0, false
	}
	switch op {
	case ir.Add:
		return mGAdd, true
	case ir.Sub:
		return mGSub, true
	case ir.Mul:
		return mGMul, true
	}
	return 0, false
}

// lowerMicros decodes a call-free run into micro-ops, fusing and
// eliding dead stores as it goes; an opcode it does not know lowers to
// nothing, as the interpreter skips it. The result lives in the comp's
// scratch buffer until the next call.
func (c *comp) lowerMicros(instrs []ir.Instr) []micro {
	ms := c.buf[:0]
	for i := 0; i < len(instrs); i++ {
		in := &instrs[i]
		// Global read-modify-write run.
		if n, m, ok := c.microGlobalRMW(instrs[i:]); ok {
			ms = append(ms, m)
			i += n - 1
			continue
		}
		// Const feeding the next instruction.
		if in.Op == ir.Const && i+1 < len(instrs) {
			if m, skip, ok := c.microConstPair(in, &instrs[i+1]); ok {
				if !skip {
					ms = append(ms, micro{op: mConst, d: int32(in.Dst), imm: in.Imm})
				}
				ms = append(ms, m)
				i++
				continue
			}
		}
		switch in.Op {
		case ir.Const:
			ms = append(ms, micro{op: mConst, d: int32(in.Dst), imm: in.Imm})
		case ir.LoadG:
			ms = append(ms, micro{op: mLoadG, d: int32(in.Dst), b: int32(in.Sym)})
		case ir.StoreG:
			ms = append(ms, micro{op: mStoreG, a: int32(in.A), b: int32(in.Sym)})
		case ir.LoadA:
			ms = append(ms, micro{op: mLoadA, d: int32(in.Dst), a: int32(in.A), b: int32(in.Sym)})
		case ir.StoreA:
			// Value register rides in d (a holds the index).
			ms = append(ms, micro{op: mStoreA, d: int32(in.B), a: int32(in.A), b: int32(in.Sym)})
		case ir.Print:
			ms = append(ms, micro{op: mPrint, a: int32(in.A)})
		default:
			if op, ok := binMicro(in.Op); ok {
				ms = append(ms, micro{op: op, d: int32(in.Dst), a: int32(in.A), b: int32(in.B)})
			}
		}
	}
	c.buf = ms
	return ms
}

// microConstPair fuses a Const into its consuming neighbor. skip
// reports that the constant's own register store is dead (single
// reader) and must not be emitted.
func (c *comp) microConstPair(a, b *ir.Instr) (m micro, skip, ok bool) {
	t, k := a.Dst, a.Imm
	skip = c.reads[t] <= 1
	if b.B == t && b.A != t {
		if op, ok2 := constMicro(b.Op); ok2 {
			return micro{op: op, d: int32(b.Dst), a: int32(b.A), imm: k}, skip, true
		}
		if b.Op == ir.StoreA {
			return micro{op: mStoreAK, a: int32(b.A), b: int32(b.Sym), imm: k}, skip, true
		}
		if k > 1 && (b.Op == ir.Div || b.Op == ir.Mod) {
			if k&(k-1) == 0 {
				op := mDivP2
				if b.Op == ir.Mod {
					op = mModP2
				}
				return micro{op: op, d: int32(b.Dst), a: int32(b.A), b: int32(bits.TrailingZeros64(uint64(k))), imm: k - 1}, skip, true
			}
			op := mDivK
			if b.Op == ir.Mod {
				op = mModK
			}
			return micro{op: op, d: int32(b.Dst), a: int32(b.A), imm: k, m: recip(k)}, skip, true
		}
	}
	if b.A == t && b.B != t {
		switch b.Op {
		case ir.Mov:
			return micro{op: mConst, d: int32(b.Dst), imm: k}, skip, true
		case ir.StoreG:
			return micro{op: mGSetK, b: int32(b.Sym), imm: k}, skip, true
		}
	}
	return micro{}, false, false
}

// microGlobalRMW recognizes the read-modify-write of a global —
// LoadG g; [Const k;] binop; StoreG g — the canonical loop counter and
// accumulator update, as one in-place update of the global. It applies
// only when no register involved is read anywhere else (per
// regReads), so no register store is owed. Returns the instruction
// count it absorbed.
func (c *comp) microGlobalRMW(instrs []ir.Instr) (n int, m micro, ok bool) {
	if len(instrs) < 3 || instrs[0].Op != ir.LoadG {
		return 0, micro{}, false
	}
	g, r1 := instrs[0].Sym, instrs[0].Dst
	if c.reads[r1] != 1 {
		return 0, micro{}, false
	}
	if len(instrs) >= 4 && instrs[1].Op == ir.Const {
		cst, op, st := &instrs[1], &instrs[2], &instrs[3]
		if st.Op == ir.StoreG && st.Sym == g && st.A == op.Dst &&
			op.A == r1 && op.B == cst.Dst && cst.Dst != r1 &&
			c.reads[cst.Dst] == 1 && c.reads[op.Dst] == 1 {
			if mo, ok2 := globalRMWMicro(op.Op, true); ok2 {
				return 4, micro{op: mo, b: int32(g), imm: cst.Imm}, true
			}
		}
		return 0, micro{}, false
	}
	op, st := &instrs[1], &instrs[2]
	if st.Op == ir.StoreG && st.Sym == g && st.A == op.Dst &&
		op.A == r1 && op.B != r1 && c.reads[op.Dst] == 1 {
		if mo, ok2 := globalRMWMicro(op.Op, false); ok2 {
			return 3, micro{op: mo, a: int32(op.B), b: int32(g)}, true
		}
	}
	return 0, micro{}, false
}
