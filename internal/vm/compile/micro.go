package compile

import "pathprof/internal/ir"

// This file is the second of the compiler's two instruction-lowering
// strategies. Short call-free runs compile to chained closures
// (fuseRun); runs of at least microMin simple instructions compile to
// a pre-decoded micro-op array executed by ONE closure. The array form
// wins on long straight-line blocks for reasons closures cannot match:
// the register slice is bounds-hoisted once per run instead of per
// instruction, operands stream from one contiguous array instead of
// scattered closure environments, and there is no call/prologue per
// instruction at all. The same peephole fusions apply (constant
// feeding the next instruction, global read-modify-write, dead
// register stores elided per regReads), encoded as dedicated micro
// opcodes.
//
// Instructions that need out-of-line machinery (Print's fmt call,
// Call's frame push) never lower; a run containing one falls back to
// closures, keeping the micro loop free of slow cases.

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
)

// microMin is the run length at which the micro-op array takes over
// from chained closures: below it, a handful of direct predicted
// closure calls is cheaper than entering the decode loop.
const microMin = 4

type micro struct {
	op  uint8
	d   int32
	a   int32
	b   int32 // register, array/global symbol, or shift count
	imm int64
}

// microExec wraps a decoded run in the executing closure.
func microExec(ms []micro) instrFn {
	return func(x *Exec, fr *frame) {
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
			}
		}
	}
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

// lowerMicros decodes a call-free run into micro ops, applying the
// same fusions (and dead-store elisions) as the closure path. Returns
// nil when some instruction cannot lower (Print, Call).
func (c *comp) lowerMicros(instrs []ir.Instr) []micro {
	ms := make([]micro, 0, len(instrs))
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
		default:
			op, ok := binMicro(in.Op)
			if !ok {
				return nil
			}
			ms = append(ms, micro{op: op, d: int32(in.Dst), a: int32(in.A), b: int32(in.B)})
		}
	}
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

// microGlobalRMW mirrors fuseGlobalRMW for the micro lowering.
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
