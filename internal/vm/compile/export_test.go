package compile

// MutatedSite records where the test mutation hook struck.
type MutatedSite struct {
	Fn       string
	From, To int
}

// mutateFirst arms the lowering-mutation hook: the first transition
// compiled after the call that apply corrupts (apply reports whether
// it did) is recorded in the returned struct. Disarm with
// ClearMutateSucc.
func mutateFirst(apply func(c *succConsts) bool) *MutatedSite {
	site := &MutatedSite{From: -1, To: -1}
	testMutateSucc = func(fn string, from, to int, c *succConsts) {
		if site.From >= 0 || !apply(c) {
			return
		}
		*site = MutatedSite{Fn: fn, From: from, To: to}
	}
	return site
}

// MutateFirstSuccBase arms the hook to add delta to the first
// transition's folded base-cost constant — a deliberate
// miscompilation.
func MutateFirstSuccBase(delta int64) *MutatedSite {
	return mutateFirst(func(c *succConsts) bool { c.Base += delta; return true })
}

// MutateFirstSuccSteps arms the hook to corrupt the folded step-count
// constant instead, covering the solo-successor charge fold.
func MutateFirstSuccSteps(delta int64) *MutatedSite {
	return mutateFirst(func(c *succConsts) bool { c.Steps += delta; return true })
}

// MutateFirstSuccEdgeSlot arms the hook to move the edge-counter bump
// of the first transition that has one delta slots along, so the
// compiled code counts the wrong edge.
func MutateFirstSuccEdgeSlot(delta int32) *MutatedSite {
	return mutateFirst(func(c *succConsts) bool {
		if c.EdgeSlot < 0 {
			return false
		}
		c.EdgeSlot += delta
		return true
	})
}

// MutateFirstSuccAdd arms the hook to add delta to the register-fold
// add constant of the first transition that applies the fold, so the
// compiled code leaves the wrong path register.
func MutateFirstSuccAdd(delta int64) *MutatedSite {
	return mutateFirst(func(c *succConsts) bool {
		if !c.Fold {
			return false
		}
		c.Add += delta
		return true
	})
}

// MutateFirstSuccICost arms the hook to add delta to the first
// transition's folded instrumentation-cost constant.
func MutateFirstSuccICost(delta int64) *MutatedSite {
	return mutateFirst(func(c *succConsts) bool { c.ICost += delta; return true })
}

// ClearMutateSucc disarms the lowering-mutation hook.
func ClearMutateSucc() { testMutateSucc = nil }

// RedriveArms drives every arm of the routine v last validated through
// every probe again, on the same twin containers.
func (v *Validator) RedriveArms() error { return v.driveArms() }

// mutateFirstTrace arms the trace-mutation hook: the first trace
// formed after the call that apply corrupts (apply reports whether it
// did) is recorded (its routine and head block) in the returned
// struct. Disarm with ClearMutateTrace.
func mutateFirstTrace(apply func(c *traceConsts) bool) *MutatedSite {
	site := &MutatedSite{From: -1, To: -1}
	testMutateTrace = func(fn string, head int, c *traceConsts) {
		if site.From >= 0 || !apply(c) {
			return
		}
		*site = MutatedSite{Fn: fn, From: head, To: -1}
	}
	return site
}

// MutateFirstTraceBase arms the hook to add delta to the first trace's
// summed base-cost constant.
func MutateFirstTraceBase(delta int64) *MutatedSite {
	return mutateFirstTrace(func(c *traceConsts) bool { c.Base += delta; return true })
}

// MutateFirstTraceSteps arms the hook to add delta to the first
// trace's summed step charge, which is also its entry budget.
func MutateFirstTraceSteps(delta int64) *MutatedSite {
	return mutateFirstTrace(func(c *traceConsts) bool { c.Steps += delta; return true })
}

// MutateFirstTraceICost arms the hook to add delta to the first
// trace's summed instrumentation-cost constant.
func MutateFirstTraceICost(delta int64) *MutatedSite {
	return mutateFirstTrace(func(c *traceConsts) bool { c.ICost += delta; return true })
}

// MutateFirstTraceEnd arms the hook to move the first trace's end
// node delta trie nodes along, so it would count the wrong path.
func MutateFirstTraceEnd(delta int32) *MutatedSite {
	return mutateFirstTrace(func(c *traceConsts) bool { c.End += delta; return true })
}

// MutateFirstTraceGuard arms the hook to reverse the direction of the
// first guard in the stream of the first trace that has one, so the
// trace would leave its path where it should stay on it and stay where
// it should leave.
func MutateFirstTraceGuard() *MutatedSite {
	return mutateFirstTrace(func(c *traceConsts) bool {
		c.FlipGuard = c.Guarded
		return c.Guarded
	})
}

// mutateFirstExit arms the hook to corrupt, with apply, the side-exit
// state of the first guard of the first trace that has one.
func mutateFirstExit(apply func(c *traceConsts)) *MutatedSite {
	return mutateFirstTrace(func(c *traceConsts) bool {
		if c.Guarded {
			apply(c)
		}
		return c.Guarded
	})
}

// MutateFirstExitSteps arms the hook to add delta to the step charge
// that the first guard's side exit restores.
func MutateFirstExitSteps(delta int64) *MutatedSite {
	return mutateFirstExit(func(c *traceConsts) { c.ExitSteps += delta })
}

// MutateFirstExitBase arms the hook to add delta to the first guard's
// side-exit base cost.
func MutateFirstExitBase(delta int64) *MutatedSite {
	return mutateFirstExit(func(c *traceConsts) { c.ExitBase += delta })
}

// MutateFirstExitICost arms the hook to add delta to the first guard's
// side-exit instrumentation cost.
func MutateFirstExitICost(delta int64) *MutatedSite {
	return mutateFirstExit(func(c *traceConsts) { c.ExitICost += delta })
}

// MutateFirstExitTally arms the hook to add delta to the transitions
// the first guard's side exit counts in a metered run.
func MutateFirstExitTally(delta int64) *MutatedSite {
	return mutateFirstExit(func(c *traceConsts) { c.ExitTrans += delta })
}

// MutateFirstExitNode arms the hook to move the trie node the first
// guard's side exit restores delta nodes along.
func MutateFirstExitNode(delta int32) *MutatedSite {
	return mutateFirstExit(func(c *traceConsts) { c.ExitNode += delta })
}

// MutateFirstExitPlen arms the hook to add delta to the pending-path
// edges the first guard's side exit appends.
func MutateFirstExitPlen(delta int32) *MutatedSite {
	return mutateFirstExit(func(c *traceConsts) { c.ExitPlen += delta })
}

// MutateFirstExitArm arms the hook to have the first guard's side exit
// call its block's on-trace arm instead of the off-trace one.
func MutateFirstExitArm() *MutatedSite {
	return mutateFirstExit(func(c *traceConsts) { c.SwapArm = true })
}

// MutateFirstTraceFold arms the hook to add delta to the add constant
// of the last register fold in the stream of the first trace that has
// one.
func MutateFirstTraceFold(delta int64) *MutatedSite {
	return mutateFirstTrace(func(c *traceConsts) bool {
		if c.Folded {
			c.FoldAdd += delta
		}
		return c.Folded
	})
}

// MutateFirstTraceRestart arms the hook to move the restart node of
// the first trace that ends at a back edge delta trie nodes along.
func MutateFirstTraceRestart(delta int32) *MutatedSite {
	return mutateFirstTrace(func(c *traceConsts) bool {
		if c.Back {
			c.Restart += delta
		}
		return c.Back
	})
}

// ClearMutateTrace disarms the trace-mutation hook.
func ClearMutateTrace() { testMutateTrace = nil }
